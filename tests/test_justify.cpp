#include "atpg/justify.hpp"

#include <gtest/gtest.h>

#include "atpg/selection.hpp"

#include "enrich/target_sets.hpp"
#include "gen/registry.hpp"
#include "oracle/oracle.hpp"
#include "paths/enumerate.hpp"
#include "sim/triple_sim.hpp"
#include "testutil/circuits.hpp"

namespace pdf {
namespace {

// The robust detection check (§2.1) on the test's simulated line triples.
bool detects(const Netlist& nl, const TwoPatternTest& t, const TargetFault& f) {
  return satisfied(simulate(nl, t.pi_values), f.requirements);
}

std::vector<TargetFault> screened_faults(const Netlist& nl) {
  const LineDelayModel dm(nl);
  EnumerationConfig cfg;
  cfg.max_faults = 1000000;
  auto faults = faults_for_paths(enumerate_longest_paths(dm, cfg).paths);
  return screen_faults(nl, std::move(faults), nullptr);
}

TEST(Justify, SatisfiesSimpleRequirements) {
  const Netlist nl = testutil::tiny_and_or();
  JustificationEngine eng(nl, 1);
  const ValueRequirement reqs[] = {{nl.id_of("y"), kRise}};
  const auto t = eng.justify(reqs);
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(t->fully_specified());
  EXPECT_TRUE(simulate(nl, t->pi_values)[nl.id_of("y")].covers(kRise));
}

TEST(Justify, FailsOnUnsatisfiableRequirements) {
  const Netlist nl = testutil::reconvergent();
  JustificationEngine eng(nl, 1);
  // p steady 1 forces a=b=1, hence q=1 and z=0: z steady 1 impossible.
  const ValueRequirement reqs[] = {
      {nl.id_of("p"), kSteady1},
      {nl.id_of("z"), kSteady1},
  };
  EXPECT_FALSE(eng.justify(reqs).has_value());
  EXPECT_GT(eng.stats().failures, 0u);
}

TEST(Justify, FailsWithoutImplicationSeedToo) {
  const Netlist nl = testutil::reconvergent();
  JustificationEngine eng(nl, 1);
  JustifyConfig cfg;
  cfg.use_implication_seed = false;
  cfg.max_attempts = 4;
  const ValueRequirement reqs[] = {
      {nl.id_of("p"), kSteady1},
      {nl.id_of("z"), kSteady1},
  };
  EXPECT_FALSE(eng.justify(reqs, cfg).has_value());
}

TEST(Justify, GeneratedTestsDetectTheirFaults) {
  // Core invariant: whenever justification succeeds on A(p), the resulting
  // test robustly detects p according to the fault simulation.
  for (const char* name : {"s27", "b03_like", "rca16"}) {
    const Netlist nl = benchmark_circuit(name);
    const auto faults = screened_faults(nl);
    ASSERT_FALSE(faults.empty()) << name;
    JustificationEngine eng(nl, 7);
    std::size_t successes = 0;
    const std::size_t limit = std::min<std::size_t>(faults.size(), 60);
    for (std::size_t i = 0; i < limit; ++i) {
      const auto t = eng.justify(faults[i].requirements);
      if (!t) continue;
      ++successes;
      EXPECT_TRUE(t->fully_specified());
      EXPECT_TRUE(detects(nl, *t, faults[i]))
          << name << ": " << fault_to_string(nl, faults[i].fault);
    }
    EXPECT_GT(successes, 0u) << name;
  }
}

TEST(Justify, DeterministicForFixedSeed) {
  const Netlist nl = benchmark_circuit("b03_like");
  const auto faults = screened_faults(nl);
  ASSERT_GE(faults.size(), 5u);
  JustificationEngine a(nl, 99), b(nl, 99);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto ta = a.justify(faults[i].requirements);
    const auto tb = b.justify(faults[i].requirements);
    ASSERT_EQ(ta.has_value(), tb.has_value());
    if (ta) {
      EXPECT_EQ(ta->pi_values, tb->pi_values);
    }
  }
}

TEST(Justify, SeedChangesDecisions) {
  const Netlist nl = benchmark_circuit("b03_like");
  const auto faults = screened_faults(nl);
  ASSERT_FALSE(faults.empty());
  JustificationEngine a(nl, 1), b(nl, 2);
  bool any_difference = false;
  for (std::size_t i = 0; i < std::min<std::size_t>(faults.size(), 10); ++i) {
    const auto ta = a.justify(faults[i].requirements);
    const auto tb = b.justify(faults[i].requirements);
    if (ta.has_value() != tb.has_value()) {
      any_difference = true;
    } else if (ta && !(ta->pi_values == tb->pi_values)) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(Justify, JointRequirementsOfCompatibleFaults) {
  // Take two faults whose requirement union is conflict-free and justify the
  // union; the resulting single test must detect both (the compaction
  // mechanism of Section 2.2).
  const Netlist nl = benchmark_circuit("s27");
  const auto faults = screened_faults(nl);
  JustificationEngine eng(nl, 3);
  int verified = 0;
  for (std::size_t i = 0; i < faults.size() && verified < 3; ++i) {
    for (std::size_t j = i + 1; j < faults.size() && verified < 3; ++j) {
      const auto& a = faults[i].requirements;
      const auto& b = faults[j].requirements;
      if (oracle::conflicts(a, b)) continue;
      const auto t = eng.justify(oracle::merge(a, b));
      if (!t) continue;
      EXPECT_TRUE(detects(nl, *t, faults[i]));
      EXPECT_TRUE(detects(nl, *t, faults[j]));
      ++verified;
    }
  }
  EXPECT_GT(verified, 0);
}

TEST(Justify, RetriesImproveSuccessOdds) {
  // With a randomized greedy search, allowing more attempts can only keep or
  // grow the set of justified requirement sets.
  const Netlist nl = benchmark_circuit("s1196_like");
  const auto faults = screened_faults(nl);
  const std::size_t limit = std::min<std::size_t>(faults.size(), 40);
  JustifyConfig one, many;
  one.max_attempts = 1;
  many.max_attempts = 5;
  std::size_t ok_one = 0, ok_many = 0;
  {
    JustificationEngine eng(nl, 5);
    for (std::size_t i = 0; i < limit; ++i) {
      ok_one += eng.justify(faults[i].requirements, one).has_value();
    }
  }
  {
    JustificationEngine eng(nl, 5);
    for (std::size_t i = 0; i < limit; ++i) {
      ok_many += eng.justify(faults[i].requirements, many).has_value();
    }
  }
  EXPECT_GE(ok_many, ok_one);
}

// The lane-batched prober against the one-simulation-per-probe reference on
// 200 P0 faults of s1196_like, in four chunks of 50 that ctest runs in
// parallel (the reference is slow under sanitizers). Per chunk: same seed,
// same order of requirement sets, so every test byte, every RNG draw and
// every JustifyStats count must agree.
class JustifyVsReference : public ::testing::TestWithParam<int> {};

TEST_P(JustifyVsReference, MatchesOnP0Faults) {
  const Netlist nl = benchmark_circuit("s1196_like");
  TargetSetConfig tcfg;
  tcfg.n_p = 4000;
  tcfg.n_p0 = 300;
  const TargetSets ts = build_target_sets(nl, tcfg);
  ASSERT_GE(ts.p0.size(), 200u);
  const std::size_t begin = 50 * static_cast<std::size_t>(GetParam());
  const std::uint64_t seed = 17 + static_cast<std::uint64_t>(GetParam());
  JustificationEngine eng(nl, seed);
  Rng ref_rng(seed);
  JustifyStats ref_stats;
  JustifyConfig cfg;
  cfg.use_implication_seed = false;
  std::size_t successes = 0;
  for (std::size_t i = begin; i < begin + 50; ++i) {
    const auto& reqs = ts.p0[i].requirements;
    const auto got = eng.justify(reqs, cfg);
    const auto want = oracle::justify(nl, reqs, ref_rng, ref_stats);
    ASSERT_EQ(got.has_value(), want.has_value()) << "fault " << i;
    if (got) {
      ASSERT_EQ(got->pi_values, want->pi_values) << "fault " << i;
      ++successes;
    }
    const JustifyStats& s = eng.stats();
    ASSERT_EQ(s.probes, ref_stats.probes) << "fault " << i;
    ASSERT_EQ(s.passes, ref_stats.passes) << "fault " << i;
    ASSERT_EQ(s.decisions, ref_stats.decisions) << "fault " << i;
    ASSERT_EQ(s.attempts, ref_stats.attempts) << "fault " << i;
    ASSERT_EQ(s.successes, ref_stats.successes) << "fault " << i;
    ASSERT_EQ(s.failures, ref_stats.failures) << "fault " << i;
  }
  EXPECT_GT(successes, 25u);
}

INSTANTIATE_TEST_SUITE_P(S1196P0, JustifyVsReference, ::testing::Range(0, 4));

// Requirement sets whose support spans 168 inputs: a 150-input AND tree, a
// 16-input XOR tree and a 2-input OR whose x0x (hazard-free 0) demand the
// greedy search meets only when its random decisions pick 0. The 336 probed bits take 672 lanes plus
// the reference lane, eleven 64-lane words, so words past the first and a
// reference lane in a later word are exercised; three attempts per call
// re-initialize the lane state after a failed attempt.
TEST(Justify, WideSupportMatchesReference) {
  Netlist nl("wide");
  const auto tree = [&](const std::string& prefix, std::size_t n,
                        GateType type) {
    std::vector<NodeId> layer;
    for (std::size_t i = 0; i < n; ++i) {
      layer.push_back(nl.add_input(prefix + std::to_string(i)));
    }
    std::size_t g = 0;
    while (layer.size() > 1) {
      std::vector<NodeId> next;
      for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
        next.push_back(nl.add_gate(prefix + "g" + std::to_string(g++), type,
                                   {layer[i], layer[i + 1]}));
      }
      if (layer.size() % 2) next.push_back(layer.back());
      layer = std::move(next);
    }
    nl.mark_output(layer.front());
    return layer.front();
  };
  const NodeId a = tree("a", 150, GateType::And);
  const NodeId b = tree("b", 16, GateType::Xor);
  const NodeId o = tree("o", 2, GateType::Or);
  nl.finalize();

  const Triple hazard_free_0{V3::X, V3::Zero, V3::X};
  const std::vector<std::vector<ValueRequirement>> sets = {
      {{a, kSteady1}, {b, kSteady1}, {o, hazard_free_0}},
      {{a, kRise}, {b, kFall}, {o, hazard_free_0}},
  };
  // Every input feeds one of the three required roots, so each set's
  // support is all 168 inputs.
  ASSERT_EQ(nl.inputs().size(), 168u);
  JustifyConfig cfg;
  cfg.use_implication_seed = false;
  cfg.max_attempts = 3;
  std::uint64_t successes = 0;
  std::uint64_t retried = 0;
  for (const std::uint64_t seed : {3u, 11u}) {
    JustificationEngine eng(nl, seed);
    Rng ref_rng(seed);
    JustifyStats ref_stats;
    for (std::size_t k = 0; k < sets.size(); ++k) {
      const std::uint64_t attempts_before = eng.stats().attempts;
      const auto got = eng.justify(sets[k], cfg);
      const auto want = oracle::justify(nl, sets[k], ref_rng, ref_stats,
                                        cfg.max_attempts);
      ASSERT_EQ(got.has_value(), want.has_value()) << "set " << k;
      if (got) {
        ASSERT_EQ(got->pi_values, want->pi_values) << "set " << k;
      }
      const JustifyStats& s = eng.stats();
      ASSERT_EQ(s.probes, ref_stats.probes) << "set " << k;
      ASSERT_EQ(s.passes, ref_stats.passes) << "set " << k;
      ASSERT_EQ(s.decisions, ref_stats.decisions) << "set " << k;
      ASSERT_EQ(s.attempts, ref_stats.attempts) << "set " << k;
      ASSERT_EQ(s.successes, ref_stats.successes) << "set " << k;
      successes += got.has_value();
      retried += s.attempts - attempts_before > 1;
    }
  }
  // Both outcomes and the re-initialization path were reached.
  EXPECT_GT(successes, 0u);
  EXPECT_GT(retried, 0u);
}

// justify_more() against justify() over a generator-like script on
// s1196_like: per test, a primary then secondaries that are accepted when
// justification succeeds and undone otherwise. One engine re-implies the
// whole union per call, the other closes only the candidate on top of the
// kept closure; with the same seed every test, every JustifyStats count and
// every later RNG draw must agree.
TEST(Justify, JustifyMoreMatchesJustify) {
  const Netlist nl = benchmark_circuit("s1196_like");
  TargetSetConfig tcfg;
  tcfg.n_p = 1000;
  tcfg.n_p0 = 100;
  const TargetSets ts = build_target_sets(nl, tcfg);
  ASSERT_GE(ts.p0.size(), 40u);
  for (const int max_attempts : {1, 3}) {
    SCOPED_TRACE("max_attempts " + std::to_string(max_attempts));
    JustifyConfig cfg;
    cfg.max_attempts = max_attempts;
    JustificationEngine whole(nl, 23), more(nl, 23);
    RequirementUnion u(nl.node_count());
    std::size_t accepted = 0, rejected = 0;
    const auto expect_same = [&](const std::optional<TwoPatternTest>& a,
                                 const std::optional<TwoPatternTest>& b,
                                 std::size_t primary, std::size_t cand) {
      ASSERT_EQ(a.has_value(), b.has_value())
          << "primary " << primary << " candidate " << cand;
      if (a) {
        ASSERT_EQ(a->pi_values, b->pi_values)
            << "primary " << primary << " candidate " << cand;
      }
      const JustifyStats& x = whole.stats();
      const JustifyStats& y = more.stats();
      ASSERT_EQ(x.attempts, y.attempts);
      ASSERT_EQ(x.probes, y.probes);
      ASSERT_EQ(x.passes, y.passes);
      ASSERT_EQ(x.decisions, y.decisions);
      ASSERT_EQ(x.successes, y.successes);
      ASSERT_EQ(x.failures, y.failures);
    };
    for (std::size_t primary = 0; primary < 8; ++primary) {
      const auto& reqs = ts.p0[primary].requirements;
      const auto a = whole.justify(reqs, cfg);
      const auto b = more.justify(reqs, cfg);
      ASSERT_NO_FATAL_FAILURE(expect_same(a, b, primary, primary));
      if (!a) continue;
      u.clear();
      u.merge(reqs);
      u.commit();
      for (std::size_t cand = 0; cand < ts.p0.size(); ++cand) {
        if (cand == primary) continue;
        const auto& added = ts.p0[cand].requirements;
        const bool conflicts =
            std::any_of(added.begin(), added.end(), [&](const auto& r) {
              return u.at(r.line).conflicts_with(r.value);
            });
        if (conflicts) continue;
        u.merge(added);
        const auto x = whole.justify(u.items(), cfg);
        const auto y = more.justify_more([&] { return u.items(); }, added, cfg);
        ASSERT_NO_FATAL_FAILURE(expect_same(x, y, primary, cand));
        if (x) {
          u.commit();
          ++accepted;
        } else {
          u.undo();
          ++rejected;
        }
      }
    }
    EXPECT_EQ(whole.rng().next(), more.rng().next());
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
  }
}

TEST(Justify, StatsAccumulate) {
  const Netlist nl = testutil::tiny_and_or();
  JustificationEngine eng(nl, 1);
  const ValueRequirement reqs[] = {{nl.id_of("z"), kRise}};
  (void)eng.justify(reqs);
  EXPECT_GE(eng.stats().attempts, 1u);
  EXPECT_GE(eng.stats().successes + eng.stats().failures, 1u);
}

}  // namespace
}  // namespace pdf
