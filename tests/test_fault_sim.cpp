// Robust fault simulation as requirement checking (§2.1): a test detects a
// fault iff the simulated line triples satisfy A(p). The scalar path is the
// compiled simulate() plus satisfied(); whole test sets go through
// BatchSimulator.
#include <gtest/gtest.h>

#include "faultsim/batch_sim.hpp"
#include "gen/registry.hpp"
#include "oracle/oracle.hpp"
#include "paths/enumerate.hpp"
#include "sim/triple_sim.hpp"
#include "testutil/circuits.hpp"

namespace pdf {
namespace {

std::vector<TargetFault> screened_faults(const Netlist& nl) {
  const LineDelayModel dm(nl);
  EnumerationConfig cfg;
  cfg.max_faults = 1000000;
  auto faults = faults_for_paths(enumerate_longest_paths(dm, cfg).paths);
  return screen_faults(nl, std::move(faults), nullptr);
}

TwoPatternTest make_test(const Netlist& nl,
                         std::initializer_list<std::pair<const char*, Triple>> vals) {
  TwoPatternTest t;
  t.pi_values.assign(nl.inputs().size(), kSteady0);
  for (const auto& [name, triple] : vals) {
    bool found = false;
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      if (nl.node(nl.inputs()[i]).name == name) {
        t.pi_values[i] = triple;
        found = true;
      }
    }
    EXPECT_TRUE(found) << name;
  }
  return t;
}

bool detects(const Netlist& nl, const TwoPatternTest& t, const TargetFault& f) {
  return satisfied(simulate(nl, t.pi_values), f.requirements);
}

TEST(FaultSim, DetectsPaperExampleFault) {
  const Netlist nl = benchmark_circuit("s27");
  const auto faults = screened_faults(nl);
  // Find the slow-to-rise fault on G1 -> G12 -> G13.
  const TargetFault* fault = nullptr;
  for (const auto& tf : faults) {
    if (tf.fault.rising_source &&
        path_to_string(nl, tf.fault.path) == "G1 -> G12 -> G13") {
      fault = &tf;
    }
  }
  ASSERT_NE(fault, nullptr);

  // Satisfying test: G1 rises, G7 steady 0, G2 steady 0 (covers xx0).
  const TwoPatternTest good =
      make_test(nl, {{"G1", kRise}, {"G7", kSteady0}, {"G2", kSteady0}});
  // Violating the off-path steady-0 on G7 kills robust detection.
  const TwoPatternTest bad1 =
      make_test(nl, {{"G1", kRise}, {"G7", kRise}, {"G2", kSteady0}});
  // Wrong source transition direction.
  const TwoPatternTest bad2 =
      make_test(nl, {{"G1", kFall}, {"G7", kSteady0}, {"G2", kSteady0}});
  // Final value 1 on G2 blocks the NOR output.
  const TwoPatternTest bad3 =
      make_test(nl, {{"G1", kRise}, {"G7", kSteady0}, {"G2", kSteady1}});
  for (const auto& [t, want] : {std::pair{&good, true}, std::pair{&bad1, false},
                                std::pair{&bad2, false},
                                std::pair{&bad3, false}}) {
    EXPECT_EQ(detects(nl, *t, *fault), want) << t->patterns_string();
    EXPECT_EQ(oracle::detects(nl, *t, fault->fault), want)
        << t->patterns_string();
  }
}

TEST(FaultSim, BatchMatchesSingle) {
  const Netlist nl = benchmark_circuit("s27");
  const auto faults = screened_faults(nl);
  const TwoPatternTest t =
      make_test(nl, {{"G1", kRise}, {"G0", kFall}, {"G3", kSteady1}});
  const DetectionMatrix batch =
      BatchSimulator(nl).detection_matrix(std::span(&t, 1), faults);
  ASSERT_EQ(batch.fault_count(), faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(batch.bit(i, 0), detects(nl, t, faults[i])) << i;
  }
}

TEST(FaultSim, DetectsAnyAccumulatesAcrossTests) {
  const Netlist nl = benchmark_circuit("s27");
  const auto faults = screened_faults(nl);
  std::vector<TwoPatternTest> tests = {
      make_test(nl, {{"G1", kRise}, {"G7", kSteady0}, {"G2", kSteady0}}),
      make_test(nl, {{"G2", kRise}, {"G1", kSteady0}, {"G7", kSteady1}}),
  };
  // Whole test sets go through BatchSimulator; its union must be the OR of
  // the per-test answers.
  const auto acc = BatchSimulator(nl).detects_any(tests, faults);
  const std::span<const TwoPatternTest> all = tests;
  const auto d0 = testutil::detected_by_any(nl, all.first(1), faults);
  const auto d1 = testutil::detected_by_any(nl, all.last(1), faults);
  std::size_t detected = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(acc[i], d0[i] || d1[i]);
    detected += acc[i];
  }
  EXPECT_GT(detected, 0u);
}

TEST(FaultSim, WrongPiCountThrows) {
  const Netlist nl = benchmark_circuit("s27");
  const CompiledCircuit cc(nl);
  SimScratch scratch;
  const std::vector<Triple> pis(3, kSteady0);
  EXPECT_THROW(simulate(cc, pis, scratch), std::invalid_argument);
}

TEST(FaultSim, RequirementSatisfactionIsExactlyDetection) {
  // Property (§2.1, "necessary and sufficient"): every requirement of A(p)
  // covered by the simulated line triples iff the definitional oracle finds
  // the test robustly detects p, for random binary tests.
  const Netlist nl = benchmark_circuit("s27");
  const auto faults = screened_faults(nl);
  const CompiledCircuit cc(nl);
  SimScratch scratch;
  Rng rng(555);
  for (int trial = 0; trial < 100; ++trial) {
    const TwoPatternTest t =
        testutil::random_two_pattern_test(rng, nl.inputs().size());
    const auto values = simulate(cc, t.pi_values, scratch);
    for (const TargetFault& f : faults) {
      bool covered = true;
      for (const auto& r : f.requirements) {
        covered = covered && values[r.line].covers(r.value);
      }
      EXPECT_EQ(covered, oracle::detects(nl, t, f.fault))
          << fault_to_string(nl, f.fault) << " under " << t.patterns_string();
    }
  }
}

}  // namespace
}  // namespace pdf
