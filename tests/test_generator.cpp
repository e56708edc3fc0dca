#include "atpg/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "enrich/target_sets.hpp"
#include "faultsim/batch_sim.hpp"
#include "faultsim/fault_sim.hpp"
#include "gen/registry.hpp"

namespace pdf {
namespace {

struct Fixture {
  Netlist nl;
  TargetSets sets;
  explicit Fixture(const std::string& name, std::size_t n_p = 600,
                   std::size_t n_p0 = 120)
      : nl(benchmark_circuit(name)) {
    TargetSetConfig cfg;
    cfg.n_p = n_p;
    cfg.n_p0 = n_p0;
    sets = build_target_sets(nl, cfg);
  }
};

TEST(Generator, EveryTestDetectsAtLeastOneTarget) {
  Fixture fx("b03_like");
  GeneratorConfig cfg;
  cfg.heuristic = CompactionHeuristic::Value;
  const GenerationResult r = generate_tests(fx.nl, fx.sets.p0, {}, cfg);
  ASSERT_FALSE(r.tests.empty());
  FaultSimulator fsim(fx.nl);
  for (const auto& t : r.tests) {
    const auto det = fsim.detects(t, fx.sets.p0);
    EXPECT_NE(std::count(det.begin(), det.end(), true), 0);
  }
}

TEST(Generator, DetectionFlagsMatchResimulation) {
  Fixture fx("b09_like");
  GeneratorConfig cfg;
  cfg.heuristic = CompactionHeuristic::Length;
  const GenerationResult r = generate_tests(fx.nl, fx.sets.p0, {}, cfg);
  const BatchSimulator fsim(fx.nl);
  const auto resim = fsim.detects_any(r.tests, fx.sets.p0);
  ASSERT_EQ(resim.size(), r.detected_p0.size());
  for (std::size_t i = 0; i < resim.size(); ++i) {
    EXPECT_EQ(resim[i], r.detected_p0[i]) << i;
  }
}

TEST(Generator, CompactionReducesTestCount) {
  Fixture fx("b03_like");
  GeneratorConfig uncomp, value;
  uncomp.heuristic = CompactionHeuristic::None;
  value.heuristic = CompactionHeuristic::Value;
  const GenerationResult ru = generate_tests(fx.nl, fx.sets.p0, {}, uncomp);
  const GenerationResult rv = generate_tests(fx.nl, fx.sets.p0, {}, value);
  // The paper's Tables 3/4: all heuristics detect about the same faults with
  // far fewer tests than the uncompacted baseline.
  EXPECT_LT(rv.tests.size(), ru.tests.size());
  const double ratio = static_cast<double>(rv.tests.size()) /
                       static_cast<double>(std::max<std::size_t>(1, ru.tests.size()));
  EXPECT_LT(ratio, 0.9);
  EXPECT_NEAR(static_cast<double>(rv.detected_p0_count()),
              static_cast<double>(ru.detected_p0_count()),
              0.12 * static_cast<double>(fx.sets.p0.size()));
}

TEST(Generator, DeterministicForFixedSeed) {
  Fixture fx("b09_like");
  GeneratorConfig cfg;
  cfg.seed = 12345;
  const GenerationResult a = generate_tests(fx.nl, fx.sets.p0, {}, cfg);
  const GenerationResult b = generate_tests(fx.nl, fx.sets.p0, {}, cfg);
  ASSERT_EQ(a.tests.size(), b.tests.size());
  for (std::size_t i = 0; i < a.tests.size(); ++i) {
    EXPECT_EQ(a.tests[i].pi_values, b.tests[i].pi_values);
  }
  EXPECT_EQ(a.detected_p0, b.detected_p0);
}

TEST(Generator, AllHeuristicsRunAndDetect) {
  Fixture fx("b03_like");
  for (CompactionHeuristic h :
       {CompactionHeuristic::None, CompactionHeuristic::Arbitrary,
        CompactionHeuristic::Length, CompactionHeuristic::Value}) {
    GeneratorConfig cfg;
    cfg.heuristic = h;
    const GenerationResult r = generate_tests(fx.nl, fx.sets.p0, {}, cfg);
    EXPECT_GT(r.detected_p0_count(), fx.sets.p0.size() / 2)
        << heuristic_name(h);
    EXPECT_GE(r.stats.primary_attempts, r.tests.size());
  }
}

TEST(Generator, SecondSetNeverAddsTests) {
  // Structural invariant of enrichment (Section 3.2): every test originates
  // from a P0 primary, so the number of tests never exceeds the number of
  // successful P0 primaries.
  Fixture fx("b09_like");
  GeneratorConfig cfg;
  const GenerationResult r =
      generate_tests(fx.nl, fx.sets.p0, fx.sets.p1, cfg);
  EXPECT_EQ(r.tests.size(),
            r.stats.primary_attempts - r.stats.primary_failures);
  EXPECT_EQ(r.detected_p1.size(), fx.sets.p1.size());
  EXPECT_GT(r.detected_p1_count(), 0u);
}

TEST(Generator, EnrichmentDetectsMoreP1ThanBasic) {
  // The headline claim (Tables 5 vs 6): explicitly targeting P1 detects
  // significantly more of it than accidental detection by basic tests.
  // (Larger N_P so the circuit has a substantial P1.)
  Fixture fx("b03_like", 1500, 120);
  GeneratorConfig cfg;
  cfg.heuristic = CompactionHeuristic::Value;
  const GenerationResult basic = generate_tests(fx.nl, fx.sets.p0, {}, cfg);
  const GenerationResult enriched =
      generate_tests(fx.nl, fx.sets.p0, fx.sets.p1, cfg);

  const BatchSimulator fsim(fx.nl);
  const auto accidental = fsim.detects_any(basic.tests, fx.sets.p1);
  const std::size_t accidental_count =
      std::count(accidental.begin(), accidental.end(), true);
  EXPECT_GT(enriched.detected_p1_count(), accidental_count);
}

TEST(Generator, SecondaryFailureCapRespected) {
  Fixture fx("b09_like");
  GeneratorConfig capped;
  capped.max_consecutive_secondary_failures = 3;
  const GenerationResult r =
      generate_tests(fx.nl, fx.sets.p0, fx.sets.p1, capped);
  // Still generates a valid test set.
  EXPECT_GT(r.detected_p0_count(), 0u);
}

TEST(Generator, EmptyTargetSetYieldsNoTests) {
  Fixture fx("b03_like");
  const GenerationResult r = generate_tests(fx.nl, {}, {}, {});
  EXPECT_TRUE(r.tests.empty());
  EXPECT_EQ(r.stats.primary_attempts, 0u);
}

TEST(Generator, HeuristicNames) {
  EXPECT_STREQ(heuristic_name(CompactionHeuristic::None), "uncomp");
  EXPECT_STREQ(heuristic_name(CompactionHeuristic::Arbitrary), "arbit");
  EXPECT_STREQ(heuristic_name(CompactionHeuristic::Length), "length");
  EXPECT_STREQ(heuristic_name(CompactionHeuristic::Value), "values");
}

TEST(Generator, StatsAreConsistent) {
  Fixture fx("b09_like");
  GeneratorConfig cfg;
  const GenerationResult r = generate_tests(fx.nl, fx.sets.p0, {}, cfg);
  EXPECT_EQ(r.stats.primary_attempts,
            r.tests.size() + r.stats.primary_failures);
  EXPECT_GT(r.stats.seconds, 0.0);
  EXPECT_GE(r.stats.justify.attempts,
            r.stats.primary_attempts);
}

}  // namespace
}  // namespace pdf
