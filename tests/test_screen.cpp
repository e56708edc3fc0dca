#include "faults/screen.hpp"

#include <gtest/gtest.h>

#include "gen/registry.hpp"
#include "oracle/oracle.hpp"
#include "paths/enumerate.hpp"
#include "runtime/metrics.hpp"
#include "testutil/circuits.hpp"

namespace pdf {
namespace {

std::vector<PathDelayFault> all_faults(const Netlist& nl,
                                       std::size_t max_faults = 1000000) {
  const LineDelayModel dm(nl);
  EnumerationConfig cfg;
  cfg.max_faults = max_faults;
  return faults_for_paths(enumerate_longest_paths(dm, cfg).paths);
}

/// screen_faults equals the per-fault screen: survivors, their order and
/// requirement bytes, and every ScreenStats field.
void expect_matches_per_fault(const Netlist& nl,
                              const std::vector<PathDelayFault>& faults,
                              Sensitization sens) {
  ScreenStats want_stats, got_stats;
  const auto want = oracle::screen_faults(nl, faults, want_stats, sens);
  const auto got = screen_faults(nl, faults, &got_stats, sens);
  EXPECT_EQ(got_stats.input_faults, want_stats.input_faults);
  EXPECT_EQ(got_stats.conflict_dropped, want_stats.conflict_dropped);
  EXPECT_EQ(got_stats.implication_dropped, want_stats.implication_dropped);
  EXPECT_EQ(got_stats.kept, want_stats.kept);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].fault.path, want[i].fault.path) << i;
    EXPECT_EQ(got[i].fault.rising_source, want[i].fault.rising_source) << i;
    EXPECT_EQ(got[i].fault.length, want[i].fault.length) << i;
    EXPECT_EQ(got[i].requirements, want[i].requirements) << i;
  }
}

std::uint64_t lane_batches() {
  return runtime::Metrics::global()
      .counter("faults.screen.lane_batches")
      .read();
}

TEST(Screen, KeepsDetectableS27Faults) {
  const Netlist nl = benchmark_circuit("s27");
  ScreenStats stats;
  const auto kept = screen_faults(nl, all_faults(nl), &stats);
  EXPECT_EQ(stats.input_faults, stats.conflict_dropped +
                                    stats.implication_dropped + stats.kept);
  EXPECT_GT(stats.kept, 0u);
  // The paper example fault must survive with its requirements attached.
  bool found = false;
  for (const auto& tf : kept) {
    if (fault_to_string(nl, tf.fault).find("G1 -> G12 -> G13") == 0 &&
        tf.fault.rising_source) {
      found = true;
      EXPECT_EQ(tf.requirements.size(), 5u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Screen, DropsLocallyConflictingFault) {
  // Path a -> z -> w where w = OR(z, a): off-path requirement xx0 on a
  // conflicts with the rising source requirement.
  Netlist nl("conf");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId z = nl.add_gate("z", GateType::And, {a, b});
  const NodeId w = nl.add_gate("w", GateType::Or, {z, a});
  nl.mark_output(w);
  nl.finalize();

  std::vector<PathDelayFault> faults;
  faults.push_back({Path{{a, z, w}}, true, 3});
  faults.push_back({Path{{a, z, w}}, false, 3});
  faults.push_back({Path{{b, z, w}}, true, 3});

  ScreenStats stats;
  const auto kept = screen_faults(nl, std::move(faults), &stats);
  EXPECT_EQ(stats.input_faults, 3u);
  EXPECT_GE(stats.conflict_dropped, 1u);
  // The rising a-fault must be gone (it needs a=0x1 and a=xx0).
  for (const auto& tf : kept) {
    EXPECT_FALSE(tf.fault.path.source() == a && tf.fault.rising_source);
  }
}

TEST(Screen, DropsImplicationContradiction) {
  // c = AND(a, b); z = AND(c, n); n = NOT(a).
  // Path b -> c -> z (rising): off-path a steady 1 (c ends at AND's
  // non-controlling... rising into AND ends at non-controlling 1 => side
  // inputs need xx1; at z the on-path c rises, so n needs xx1 which implies
  // a = xx0 — together with a = xx1 a contradiction only implication sees.
  Netlist nl("imp");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId n = nl.add_gate("n", GateType::Not, {a});
  const NodeId c = nl.add_gate("c", GateType::And, {a, b});
  const NodeId z = nl.add_gate("z", GateType::And, {c, n});
  nl.mark_output(z);
  nl.finalize();

  std::vector<PathDelayFault> faults;
  faults.push_back({Path{{b, c, z}}, true, 3});

  ScreenStats stats;
  const auto kept = screen_faults(nl, std::move(faults), &stats);
  EXPECT_EQ(kept.size(), 0u);
  EXPECT_EQ(stats.implication_dropped + stats.conflict_dropped, 1u);
  EXPECT_GE(stats.implication_dropped, 1u);
}

TEST(Screen, SurvivorsKeepInputOrder) {
  const Netlist nl = benchmark_circuit("s27");
  const auto faults = all_faults(nl);
  const auto kept = screen_faults(nl, faults, nullptr);
  // Lengths must appear in the same (descending-by-pairs) order as input.
  std::size_t j = 0;
  for (const auto& f : faults) {
    if (j < kept.size() && kept[j].fault.path == f.path &&
        kept[j].fault.rising_source == f.rising_source) {
      ++j;
    }
  }
  EXPECT_EQ(j, kept.size());
}

TEST(Screen, NullStatsAccepted) {
  const Netlist nl = benchmark_circuit("s27");
  EXPECT_NO_THROW(screen_faults(nl, all_faults(nl), nullptr));
}

TEST(Screen, LaneBatchesMatchPerFaultEngine) {
  for (const std::string& name : table_circuits()) {
    SCOPED_TRACE(name);
    const Netlist nl = benchmark_circuit(name);
    const auto faults = all_faults(nl, 4000);
    for (const Sensitization sens :
         {Sensitization::Robust, Sensitization::NonRobust}) {
      expect_matches_per_fault(nl, faults, sens);
    }
  }
}

TEST(Screen, BackwardControlledRuleFindsContradiction) {
  // Path s -> n1 -> n2 -> n3 -> n4, rising. Its side inputs require, in the
  // final pattern, x = 1 (AND n1), g1 = 0 (OR n2), g2 = 1 (AND n3) and
  // z = 0 (OR n4). g1 = AND(x, y) = 0 with x = 1 forces y = 0, and
  // g2 = OR(z, y) = 1 with z = 0 forces y = 1: only the controlled-output
  // rule ("all other inputs non-controlling, so this one is controlling")
  // derives either value, and forward evaluation sees nothing while y is x.
  Netlist nl("ctl");
  const NodeId s = nl.add_input("s");
  const NodeId x = nl.add_input("x");
  const NodeId y = nl.add_input("y");
  const NodeId z = nl.add_input("z");
  const NodeId g1 = nl.add_gate("g1", GateType::And, {x, y});
  const NodeId g2 = nl.add_gate("g2", GateType::Or, {z, y});
  const NodeId n1 = nl.add_gate("n1", GateType::And, {s, x});
  const NodeId n2 = nl.add_gate("n2", GateType::Or, {n1, g1});
  const NodeId n3 = nl.add_gate("n3", GateType::And, {n2, g2});
  const NodeId n4 = nl.add_gate("n4", GateType::Or, {n3, z});
  nl.mark_output(n4);
  nl.finalize();

  const PathDelayFault fault{Path{{s, n1, n2, n3, n4}}, true, 5};
  const FaultRequirements reqs = build_requirements(nl, fault);
  ASSERT_FALSE(reqs.conflicting);
  ImplicationEngine engine(nl);
  EXPECT_TRUE(engine.contradicts(reqs.values));

  const CompiledCircuit cc(nl);
  LaneImplication lanes(cc);
  lanes.add(reqs.values);
  lanes.close();
  EXPECT_TRUE(lanes.contradicts(0));

  ScreenStats stats;
  const auto kept = screen_faults(nl, {fault}, &stats);
  EXPECT_TRUE(kept.empty());
  EXPECT_EQ(stats.implication_dropped, 1u);
}

TEST(Screen, EmptyInputClosesNoBatch) {
  const Netlist nl = benchmark_circuit("s27");
  const std::uint64_t before = lane_batches();
  ScreenStats stats;
  stats.kept = 7;
  EXPECT_TRUE(screen_faults(nl, {}, &stats).empty());
  EXPECT_EQ(stats.input_faults, 0u);
  EXPECT_EQ(stats.conflict_dropped, 0u);
  EXPECT_EQ(stats.implication_dropped, 0u);
  EXPECT_EQ(stats.kept, 0u);
  EXPECT_EQ(lane_batches(), before);
}

TEST(Screen, SingleFaultMatchesPerFaultEngine) {
  const Netlist nl = benchmark_circuit("s27");
  for (const auto& f : all_faults(nl)) {
    for (const Sensitization sens :
         {Sensitization::Robust, Sensitization::NonRobust}) {
      expect_matches_per_fault(nl, {f}, sens);
    }
  }
}

TEST(Screen, ExactlyOneFullBatch) {
  // kLanes faults that all pass screen (1) fill exactly one lane batch.
  const Netlist nl = benchmark_circuit("s1196_like");
  std::vector<PathDelayFault> faults;
  for (const auto& f : all_faults(nl, 2000)) {
    if (faults.size() == LaneImplication::kLanes) break;
    if (!build_requirements(nl, f).conflicting) faults.push_back(f);
  }
  ASSERT_EQ(faults.size(), LaneImplication::kLanes);
  const std::uint64_t before = lane_batches();
  expect_matches_per_fault(nl, faults, Sensitization::Robust);
  EXPECT_EQ(lane_batches(), before + 1);
}

}  // namespace
}  // namespace pdf
