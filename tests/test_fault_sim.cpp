#include "faultsim/fault_sim.hpp"

#include <gtest/gtest.h>

#include "faultsim/batch_sim.hpp"
#include "gen/registry.hpp"
#include "sim/triple_sim.hpp"
#include "paths/enumerate.hpp"
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

  FaultSimulator fsim(nl);
  // Satisfying test: G1 rises, G7 steady 0, G2 steady 0 (covers xx0).
  const TwoPatternTest good =
      make_test(nl, {{"G1", kRise}, {"G7", kSteady0}, {"G2", kSteady0}});
  EXPECT_TRUE(fsim.detects(good, *fault));

  // Violating the off-path steady-0 on G7 kills robust detection.
  const TwoPatternTest bad1 =
      make_test(nl, {{"G1", kRise}, {"G7", kRise}, {"G2", kSteady0}});
  EXPECT_FALSE(fsim.detects(bad1, *fault));

  // Wrong source transition direction.
  const TwoPatternTest bad2 =
      make_test(nl, {{"G1", kFall}, {"G7", kSteady0}, {"G2", kSteady0}});
  EXPECT_FALSE(fsim.detects(bad2, *fault));

  // Final value 1 on G2 blocks the NOR output.
  const TwoPatternTest bad3 =
      make_test(nl, {{"G1", kRise}, {"G7", kSteady0}, {"G2", kSteady1}});
  EXPECT_FALSE(fsim.detects(bad3, *fault));
}

TEST(FaultSim, BatchMatchesSingle) {
  const Netlist nl = benchmark_circuit("s27");
  const auto faults = screened_faults(nl);
  FaultSimulator fsim(nl);
  const TwoPatternTest t =
      make_test(nl, {{"G1", kRise}, {"G0", kFall}, {"G3", kSteady1}});
  const auto batch = fsim.detects(t, faults);
  ASSERT_EQ(batch.size(), faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(batch[i], fsim.detects(t, faults[i])) << i;
  }
}

TEST(FaultSim, DetectsAnyAccumulatesAcrossTests) {
  const Netlist nl = benchmark_circuit("s27");
  const auto faults = screened_faults(nl);
  FaultSimulator fsim(nl);
  std::vector<TwoPatternTest> tests = {
      make_test(nl, {{"G1", kRise}, {"G7", kSteady0}, {"G2", kSteady0}}),
      make_test(nl, {{"G2", kRise}, {"G1", kSteady0}, {"G7", kSteady1}}),
  };
  // Whole test sets go through BatchSimulator; its union must be the OR of
  // the per-test answers.
  const auto acc = BatchSimulator(nl).detects_any(tests, faults);
  const auto d0 = fsim.detects(tests[0], faults);
  const auto d1 = fsim.detects(tests[1], faults);
  std::size_t detected = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(acc[i], d0[i] || d1[i]);
    detected += acc[i];
  }
  EXPECT_GT(detected, 0u);
}

TEST(FaultSim, IntermediatePlaneIsNormalized) {
  // A caller may pass PI triples with stale middle components; the simulator
  // must derive them from the pattern planes.
  const Netlist nl = benchmark_circuit("s27");
  const auto faults = screened_faults(nl);
  FaultSimulator fsim(nl);
  TwoPatternTest t =
      make_test(nl, {{"G1", kRise}, {"G7", kSteady0}, {"G2", kSteady0}});
  // Corrupt middles.
  for (auto& v : t.pi_values) v.a2 = V3::X;
  TwoPatternTest clean =
      make_test(nl, {{"G1", kRise}, {"G7", kSteady0}, {"G2", kSteady0}});
  EXPECT_EQ(fsim.detects(t, faults), fsim.detects(clean, faults));
}

TEST(FaultSim, WrongPiCountThrows) {
  const Netlist nl = benchmark_circuit("s27");
  FaultSimulator fsim(nl);
  TwoPatternTest t;
  t.pi_values.assign(3, kSteady0);
  EXPECT_THROW(fsim.line_values(t), std::invalid_argument);
}

TEST(FaultSim, RequirementSatisfactionIsExactlyDetection) {
  // Property: detects(t, f) must equal "every requirement of f is covered by
  // the simulated line triples" for random binary tests.
  const Netlist nl = benchmark_circuit("s27");
  const auto faults = screened_faults(nl);
  FaultSimulator fsim(nl);
  Rng rng(555);
  for (int trial = 0; trial < 100; ++trial) {
    TwoPatternTest t;
    t.pi_values.resize(nl.inputs().size());
    for (auto& v : t.pi_values) {
      v = pi_triple(rng.coin() ? V3::One : V3::Zero,
                    rng.coin() ? V3::One : V3::Zero);
    }
    const auto values = fsim.line_values(t);
    const auto det = fsim.detects(t, faults);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      bool covered = true;
      for (const auto& r : faults[i].requirements) {
        covered = covered && values[r.line].covers(r.value);
      }
      EXPECT_EQ(det[i], covered);
    }
  }
}

}  // namespace
}  // namespace pdf
