// Cross-validation of the two-pattern triple algebra and the robust
// detection criterion against the independent timed waveform simulator.
#include <gtest/gtest.h>

#include "gen/registry.hpp"
#include "paths/enumerate.hpp"
#include "sim/timed_sim.hpp"
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

struct DelayDraw {
  std::vector<int> switch_times;
  std::vector<int> gate_delays;
};

DelayDraw random_delays(const Netlist& nl, Rng& rng) {
  DelayDraw d;
  d.switch_times.resize(nl.inputs().size());
  d.gate_delays.resize(nl.node_count());
  for (auto& t : d.switch_times) t = static_cast<int>(rng.below(20));
  for (auto& g : d.gate_delays) g = 1 + static_cast<int>(rng.below(10));
  return d;
}

TEST(TimingValidation, WaveformBasics) {
  const Netlist nl = testutil::tiny_and_or();
  // a rises at t=5, b steady 1, c steady 0; unit-ish delays.
  std::vector<Triple> pis = {kRise, kSteady1, kSteady0};
  std::vector<int> sw = {5, 0, 0};
  std::vector<int> delays(nl.node_count(), 2);
  const auto wf = simulate_timed(nl, pis, sw, delays);
  const Waveform& y = wf[nl.id_of("y")];
  EXPECT_EQ(y.initial, V3::Zero);
  ASSERT_EQ(y.changes.size(), 1u);
  EXPECT_EQ(y.changes[0].first, 7);  // 5 + delay 2
  EXPECT_EQ(y.changes[0].second, V3::One);
  const Waveform& z = wf[nl.id_of("z")];
  EXPECT_EQ(z.final_value(), V3::One);
  EXPECT_EQ(z.settle_time(), 9);
}

TEST(TimingValidation, GlitchAppearsWithSkewedArrivals) {
  // z = NAND(p, q) in the reconvergent circuit with both inputs rising:
  // p = AND(a,b) rises; q = OR(NOT(a), b) is statically 1 but dips when
  // NOT(a) falls before b arrives. If p rises before the dip, z glitches
  // (1 -> 0 -> 1 -> 0). The timed simulator must expose the glitch for some
  // delay assignment and the triple simulator must have said x.
  const Netlist nl = testutil::reconvergent();
  std::vector<Triple> pis = {kRise, kRise};
  const auto triple = simulate(nl, pis);
  const Triple z3 = triple[nl.id_of("z")];
  EXPECT_EQ(z3.a2, V3::X);  // conservatively unknown

  bool glitch_seen = false;
  Rng rng(7);
  for (int trial = 0; trial < 200 && !glitch_seen; ++trial) {
    const DelayDraw d = random_delays(nl, rng);
    const auto wf = simulate_timed(nl, pis, d.switch_times, d.gate_delays);
    glitch_seen = wf[nl.id_of("z")].changes.size() > 1;
  }
  EXPECT_TRUE(glitch_seen);
}

TEST(TimingValidation, SteadyClaimsAreSoundUnderAllDelays) {
  // Property: a line whose triple-simulated intermediate plane is specified
  // never switches in the timed simulation, for any delay assignment.
  Rng rng(90210);
  for (int iter = 0; iter < 12; ++iter) {
    const Netlist nl = testutil::random_small_netlist(rng);
    for (int assign = 0; assign < 6; ++assign) {
      std::vector<Triple> pis(nl.inputs().size());
      for (auto& t : pis) {
        t = pi_triple(rng.coin() ? V3::One : V3::Zero,
                      rng.coin() ? V3::One : V3::Zero);
      }
      const auto triple = simulate(nl, pis);
      for (int draw = 0; draw < 10; ++draw) {
        const DelayDraw d = random_delays(nl, rng);
        const auto wf = simulate_timed(nl, pis, d.switch_times, d.gate_delays);
        for (NodeId id = 0; id < nl.node_count(); ++id) {
          EXPECT_EQ(wf[id].initial, triple[id].a1) << nl.node(id).name;
          EXPECT_EQ(wf[id].final_value(), triple[id].a3) << nl.node(id).name;
          if (is_specified(triple[id].a2)) {
            EXPECT_TRUE(wf[id].constant())
                << "hazard on line claimed steady: " << nl.node(id).name;
          }
        }
      }
    }
  }
}

// The timing property that makes robust tests robust: with a test satisfying
// A(p), every on-path gate output settles no earlier than its on-path input's
// settle time plus its own delay, for every delay assignment (off-path
// arrivals can only delay it further, never let the output settle early).
// Hence a slow path always shows up late at the sampled output.
TEST(TimingValidation, RobustTestsPropagateAlongThePath) {
  const Netlist nl = benchmark_circuit("s27");
  const auto faults = screened_faults(nl);
  Rng rng(1234);

  int verified_faults = 0;
  for (const auto& tf : faults) {
    // Build a satisfying test directly from the requirements: assign every
    // required PI bit, others random — then keep it only if it detects.
    TwoPatternTest t;
    t.pi_values.resize(nl.inputs().size());
    for (std::size_t i = 0; i < t.pi_values.size(); ++i) {
      t.pi_values[i] = pi_triple(rng.coin() ? V3::One : V3::Zero,
                                 rng.coin() ? V3::One : V3::Zero);
    }
    for (const auto& r : tf.requirements) {
      for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        if (nl.inputs()[i] == r.line) {
          const V3 v1 = is_specified(r.value.a1) ? r.value.a1
                                                 : t.pi_values[i].a1;
          const V3 v3 = is_specified(r.value.a3) ? r.value.a3
                                                 : t.pi_values[i].a3;
          t.pi_values[i] = pi_triple(v1, v3);
        }
      }
    }
    if (!satisfied(simulate(nl, t.pi_values), tf.requirements)) continue;
    ++verified_faults;

    for (int draw = 0; draw < 15; ++draw) {
      const DelayDraw d = random_delays(nl, rng);
      const auto wf = simulate_timed(nl, t.pi_values, d.switch_times,
                                     d.gate_delays);
      // Settle time must accumulate along the path: each on-path node
      // settles no earlier than its delay after its on-path predecessor.
      const auto& nodes = tf.fault.path.nodes;
      for (std::size_t k = 1; k < nodes.size(); ++k) {
        const Waveform& prev = wf[nodes[k - 1]];
        const Waveform& cur = wf[nodes[k]];
        ASSERT_FALSE(prev.constant());
        ASSERT_FALSE(cur.constant());
        EXPECT_GE(cur.settle_time(),
                  prev.settle_time() + d.gate_delays[nodes[k]])
            << fault_to_string(nl, tf.fault) << " at "
            << nl.node(nodes[k]).name;
      }
    }
    if (verified_faults >= 12) break;
  }
  EXPECT_GE(verified_faults, 8);
}

TEST(TimingValidation, NonRobustTestCanMaskThePath) {
  // Negative control: the paper-example fault with its off-path steady-0
  // requirement deliberately violated (G7 falls instead). There must exist a
  // delay assignment where the sink settle time is NOT driven by the on-path
  // input (the off-path transition races it).
  const Netlist nl = benchmark_circuit("s27");
  const auto faults = screened_faults(nl);
  const TargetFault* fault = nullptr;
  for (const auto& tf : faults) {
    if (tf.fault.rising_source &&
        path_to_string(nl, tf.fault.path) == "G1 -> G12 -> G13") {
      fault = &tf;
    }
  }
  ASSERT_NE(fault, nullptr);

  TwoPatternTest t;
  t.pi_values.assign(nl.inputs().size(), kSteady0);
  auto set = [&](const char* name, const Triple& v) {
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      if (nl.node(nl.inputs()[i]).name == name) t.pi_values[i] = v;
    }
  };
  set("G1", kRise);
  set("G7", kFall);  // violates the steady-0 robust constraint
  set("G2", kSteady0);
  ASSERT_FALSE(satisfied(simulate(nl, t.pi_values), fault->requirements));

  Rng rng(42);
  bool violation_seen = false;
  for (int draw = 0; draw < 200 && !violation_seen; ++draw) {
    const DelayDraw d = random_delays(nl, rng);
    const auto wf = simulate_timed(nl, t.pi_values, d.switch_times, d.gate_delays);
    const auto& nodes = fault->fault.path.nodes;
    for (std::size_t k = 1; k < nodes.size(); ++k) {
      const Waveform& prev = wf[nodes[k - 1]];
      const Waveform& cur = wf[nodes[k]];
      if (prev.constant() || cur.constant() ||
          cur.settle_time() < prev.settle_time() + d.gate_delays[nodes[k]]) {
        violation_seen = true;
        break;
      }
    }
  }
  EXPECT_TRUE(violation_seen);
}

TEST(TimingValidation, InputValidation) {
  const Netlist nl = testutil::tiny_and_or();
  std::vector<Triple> pis(3, kSteady0);
  std::vector<int> sw(3, 0);
  std::vector<int> delays(nl.node_count(), 1);
  EXPECT_NO_THROW(simulate_timed(nl, pis, sw, delays));
  std::vector<Triple> bad_pis(2, kSteady0);
  EXPECT_THROW(simulate_timed(nl, bad_pis, sw, delays), std::invalid_argument);
  std::vector<int> bad_delays(2, 1);
  EXPECT_THROW(simulate_timed(nl, pis, sw, bad_delays), std::invalid_argument);
  std::vector<Triple> unspecified(3, kAllX);
  EXPECT_THROW(simulate_timed(nl, unspecified, sw, delays), std::invalid_argument);
}

}  // namespace
}  // namespace pdf
