#include "atpg/selection.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "base/rng.hpp"
#include "enrich/target_sets.hpp"
#include "gen/registry.hpp"
#include "oracle/oracle.hpp"

namespace pdf {
namespace {

TargetFault fault_with(std::vector<ValueRequirement> reqs) {
  TargetFault f;
  f.requirements = std::move(reqs);
  return f;
}

std::vector<std::size_t> identity_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

TEST(SecondaryPicker, DeltaCount) {
  RequirementUnion u(8);
  const ValueRequirement have[] = {{1, kSteady0}, {2, kRise}};
  u.merge(have);
  u.commit();
  const TargetFault faults[] = {
      fault_with({
          {1, kFinal0},   // covered by steady 0 -> not new
          {2, kRise},     // identical -> not new
          {3, kSteady1},  // new line
          {2, kSteady1},  // conflicting/uncovered -> counts as new
      }),
      fault_with({}),
  };
  const auto order = identity_order(2);
  SecondaryPicker picker(faults, order, 8, true);
  picker.begin(u, std::vector<bool>(2, false));
  EXPECT_EQ(picker.delta(0), 2u);
  EXPECT_TRUE(picker.conflicts(0));
  EXPECT_EQ(picker.delta(1), 0u);
  EXPECT_FALSE(picker.conflicts(1));
}

TEST(RequirementUnion, UndoRestoresTheCommittedUnion) {
  RequirementUnion u(8);
  const ValueRequirement primary[] = {{4, kFinal1}, {2, kRise}};
  u.merge(primary);
  EXPECT_EQ(u.commit().size(), 2u);
  const std::vector<ValueRequirement> before(u.items().begin(), u.items().end());
  ASSERT_EQ(before.size(), 2u);
  EXPECT_EQ(before[0].line, 2u);  // ascending line order

  const ValueRequirement trial[] = {{4, kSteady1}, {6, kSteady0}};
  u.merge(trial);
  EXPECT_EQ(u.at(4), kSteady1);
  EXPECT_EQ(u.items().size(), 3u);
  u.undo();
  EXPECT_TRUE(std::ranges::equal(u.items(), before));
  EXPECT_EQ(u.at(6), kAllX);
  EXPECT_EQ(u.lines().size(), 2u);

  u.merge(trial);
  const auto changes = u.commit();
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[0].line, 4u);
  EXPECT_EQ(changes[0].before, kFinal1);
  EXPECT_EQ(changes[0].after, kSteady1);
  EXPECT_EQ(changes[1].before, kAllX);

  // New lines that interleave the committed ones, before and after commit.
  const ValueRequirement interleaved[] = {{7, kRise}, {1, kSteady0}, {3, kFall}};
  const std::vector<ValueRequirement> merged = {
      {1, kSteady0}, {2, kRise}, {3, kFall},
      {4, kSteady1}, {6, kSteady0}, {7, kRise}};
  u.merge(interleaved);
  EXPECT_TRUE(std::ranges::equal(u.items(), merged));
  u.commit();
  EXPECT_TRUE(std::ranges::equal(u.items(), merged));

  u.clear();
  EXPECT_TRUE(u.items().empty());
  EXPECT_EQ(u.at(4), kAllX);
}

TEST(SecondaryPicker, PicksMinimumDeltaThenVisitOrder) {
  RequirementUnion u(8);
  const ValueRequirement primary[] = {{0, kRise}};
  u.merge(primary);
  u.commit();
  const TargetFault faults[] = {
      fault_with({{1, kSteady0}, {2, kSteady0}}),  // n_delta 2
      fault_with({{0, kRise}, {3, kSteady1}}),     // n_delta 1
      fault_with({{0, kRise}, {4, kSteady1}}),     // n_delta 1
      fault_with({{0, kFall}}),                    // n_delta 1, conflicts
  };
  const std::vector<std::size_t> order = {3, 2, 1, 0};
  SecondaryPicker picker(faults, order, 8, true);
  picker.begin(u, std::vector<bool>(4, false));
  EXPECT_EQ(picker.pick(), 3u);  // ties go to the earlier visit position
  EXPECT_TRUE(picker.conflicts(3));
  EXPECT_EQ(picker.pick(), 2u);

  // Accepting fault 2 does not help fault 1; accepting {1, 2} steady 0
  // drops fault 0 to n_delta 0, ahead of fault 1.
  const ValueRequirement accepted[] = {{1, kSteady0}, {2, kSteady0}};
  u.merge(accepted);
  picker.apply(u.commit());
  EXPECT_EQ(picker.delta(0), 0u);
  EXPECT_EQ(picker.pick(), 0u);
  EXPECT_EQ(picker.pick(), 1u);
  EXPECT_EQ(picker.pick(), SecondaryPicker::kNone);
}

TEST(SecondaryPicker, BeginExcludesDetectedAndPrimary) {
  RequirementUnion u(4);
  const TargetFault faults[] = {fault_with({{0, kRise}}), fault_with({{1, kRise}}),
                                fault_with({{2, kRise}})};
  const auto order = identity_order(3);
  SecondaryPicker picker(faults, order, 4, false);
  picker.begin(u, {false, true, false}, 0);
  EXPECT_EQ(picker.pick(), 2u);
  EXPECT_EQ(picker.pick(), SecondaryPicker::kNone);
  // A new test starts over, whatever the previous one left behind.
  picker.begin(u, {false, false, false});
  EXPECT_EQ(picker.pick(), 0u);
  EXPECT_EQ(picker.pick(), 1u);
}

TEST(SecondaryPicker, VisitOrderWithoutRanking) {
  RequirementUnion u(8);
  const ValueRequirement primary[] = {{0, kRise}};
  u.merge(primary);
  u.commit();
  const TargetFault faults[] = {
      fault_with({{1, kSteady0}, {2, kSteady0}}),
      fault_with({{0, kRise}}),
  };
  const auto order = identity_order(2);
  SecondaryPicker picker(faults, order, 8, false);
  picker.begin(u, std::vector<bool>(2, false));
  EXPECT_EQ(picker.pick(), 0u);  // n_delta is ignored
  EXPECT_EQ(picker.pick(), 1u);
}

TEST(SecondaryPicker, MatchesNaiveReferenceOnPathFaults) {
  // Accept every non-conflicting candidate (the justifier's verdict does not
  // matter to the picker) and compare each pick with the naive argmin.
  const Netlist nl = benchmark_circuit("s1196_like");
  TargetSetConfig cfg;
  cfg.n_p = 2000;
  cfg.n_p0 = 100;
  const TargetSets ts = build_target_sets(nl, cfg);
  ASSERT_GT(ts.p1.size(), 100u);
  std::vector<std::size_t> order = identity_order(ts.p1.size());
  Rng rng(7);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  SecondaryPicker picker(ts.p1, order, nl.node_count(), true);
  RequirementUnion u(nl.node_count());
  u.merge(ts.p0[0].requirements);
  u.commit();
  std::vector<ValueRequirement> have(u.items().begin(), u.items().end());
  std::vector<bool> eligible(ts.p1.size(), true);
  picker.begin(u, std::vector<bool>(ts.p1.size(), false));
  for (int step = 0; step < 150; ++step) {
    const std::size_t want = oracle::pick_secondary(have, ts.p1, order, eligible);
    ASSERT_EQ(picker.pick(), want) << "step " << step;
    if (want == SecondaryPicker::kNone) break;
    eligible[want] = false;
    const auto& reqs = ts.p1[want].requirements;
    ASSERT_EQ(picker.conflicts(want), oracle::conflicts(have, reqs));
    if (picker.conflicts(want)) continue;
    u.merge(reqs);
    picker.apply(u.commit());
    have = oracle::merge(have, reqs);
  }
}

}  // namespace
}  // namespace pdf
