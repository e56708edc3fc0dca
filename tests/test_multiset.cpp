// Tests for the multi-subset generalization (the paper's "larger number of
// subsets" remark): k-way target-set splits and k-set generation.
#include <gtest/gtest.h>

#include "atpg/generator.hpp"
#include "enrich/target_sets.hpp"
#include "faultsim/batch_sim.hpp"
#include "gen/registry.hpp"

namespace pdf {
namespace {

TEST(MultiSet, SplitMatchesTwoSetBuilder) {
  const Netlist nl = benchmark_circuit("s953_like");
  TargetSetConfig cfg;
  cfg.n_p = 2000;
  cfg.n_p0 = 200;
  const TargetSets two = build_target_sets(nl, cfg);
  const std::size_t thresholds[] = {200};
  const MultiTargetSets multi = build_target_sets_multi(nl, cfg, thresholds);
  ASSERT_EQ(multi.sets.size(), 2u);
  EXPECT_EQ(multi.sets[0].size(), two.p0.size());
  EXPECT_EQ(multi.sets[1].size(), two.p1.size());
  ASSERT_EQ(multi.cutoff_lengths.size(), 1u);
  EXPECT_EQ(multi.cutoff_lengths[0], two.cutoff_length);
}

TEST(MultiSet, ThreeWaySplitIsOrderedAndComplete) {
  const Netlist nl = benchmark_circuit("s953_like");
  TargetSetConfig cfg;
  cfg.n_p = 2000;
  cfg.n_p0 = 100;
  const std::size_t thresholds[] = {100, 250};
  const MultiTargetSets m = build_target_sets_multi(nl, cfg, thresholds);
  ASSERT_EQ(m.sets.size(), 3u);
  EXPECT_EQ(m.total(), m.screen.kept);
  ASSERT_EQ(m.cutoff_lengths.size(), 2u);
  EXPECT_GT(m.cutoff_lengths[0], m.cutoff_lengths[1]);
  for (const auto& tf : m.sets[0]) {
    EXPECT_GE(tf.fault.length, m.cutoff_lengths[0]);
  }
  for (const auto& tf : m.sets[1]) {
    EXPECT_GE(tf.fault.length, m.cutoff_lengths[1]);
    EXPECT_LT(tf.fault.length, m.cutoff_lengths[0]);
  }
  for (const auto& tf : m.sets[2]) {
    EXPECT_LT(tf.fault.length, m.cutoff_lengths[1]);
  }
}

TEST(MultiSet, RejectsNonIncreasingThresholds) {
  const Netlist nl = benchmark_circuit("b03_like");
  TargetSetConfig cfg;
  cfg.n_p = 500;
  const std::size_t bad[] = {100, 100};
  EXPECT_THROW(build_target_sets_multi(nl, cfg, bad), std::invalid_argument);
}

TEST(MultiSet, ThreeSetGenerationKeepsTestCountInvariant) {
  const Netlist nl = benchmark_circuit("b04_like");
  TargetSetConfig cfg;
  cfg.n_p = 1200;
  cfg.n_p0 = 100;
  const std::size_t thresholds[] = {100, 250};
  const MultiTargetSets m = build_target_sets_multi(nl, cfg, thresholds);
  ASSERT_GE(m.sets.size(), 3u);
  if (m.sets[0].empty()) GTEST_SKIP();

  const std::span<const TargetFault> spans[] = {m.sets[0], m.sets[1], m.sets[2]};
  GeneratorConfig g;
  const GenerationResult r = generate_tests_multi(nl, spans, g);

  // Tests only from set-0 primaries.
  EXPECT_EQ(r.tests.size(), r.stats.primary_attempts - r.stats.primary_failures);
  ASSERT_EQ(r.detected.size(), 3u);
  EXPECT_EQ(r.detected[0].size(), m.sets[0].size());
  EXPECT_EQ(r.detected[2].size(), m.sets[2].size());

  // Detection flags agree with post-hoc simulation for every set.
  const BatchSimulator fsim(nl);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(fsim.detects_any(r.tests, spans[k]),
              std::vector<bool>(r.detected[k].begin(), r.detected[k].end()));
  }
}

TEST(MultiSet, DeeperPartitionDetectsNoFewerTotalFaults) {
  // Splitting the opportunistic pool in two (longer faults offered first)
  // must not behave pathologically versus a single pool: total detected
  // stays in the same ballpark and the test count invariant holds.
  const Netlist nl = benchmark_circuit("s953_like");
  TargetSetConfig cfg;
  cfg.n_p = 1500;
  cfg.n_p0 = 150;
  const std::size_t two_t[] = {150};
  const std::size_t three_t[] = {150, 400};
  const MultiTargetSets two = build_target_sets_multi(nl, cfg, two_t);
  const MultiTargetSets three = build_target_sets_multi(nl, cfg, three_t);
  ASSERT_EQ(two.total(), three.total());

  GeneratorConfig g;
  const std::span<const TargetFault> s2[] = {two.sets[0], two.sets[1]};
  const std::span<const TargetFault> s3[] = {three.sets[0], three.sets[1],
                                             three.sets[2]};
  const GenerationResult r2 = generate_tests_multi(nl, s2, g);
  const GenerationResult r3 = generate_tests_multi(nl, s3, g);

  auto total_detected = [](const GenerationResult& r) {
    std::size_t n = 0;
    for (std::size_t k = 0; k < r.detected.size(); ++k) n += r.detected_count(k);
    return n;
  };
  const double a = static_cast<double>(total_detected(r2));
  const double b = static_cast<double>(total_detected(r3));
  EXPECT_NEAR(a, b, 0.15 * static_cast<double>(two.total()) + 10.0);
}

TEST(MultiSet, EmptyMiddleSetIsHarmless) {
  const Netlist nl = benchmark_circuit("b03_like");
  TargetSetConfig cfg;
  cfg.n_p = 600;
  cfg.n_p0 = 80;
  const TargetSets ts = build_target_sets(nl, cfg);
  const std::span<const TargetFault> spans[] = {ts.p0, {}, ts.p1};
  const GenerationResult r = generate_tests_multi(nl, spans, {});
  EXPECT_GT(r.detected_count(0), 0u);
  EXPECT_EQ(r.detected[1].size(), 0u);
}

}  // namespace
}  // namespace pdf
