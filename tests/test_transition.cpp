#include "faults/transition.hpp"

#include <gtest/gtest.h>

#include <set>

#include "atpg/generator.hpp"
#include "faultsim/batch_sim.hpp"
#include "gen/registry.hpp"

namespace pdf {
namespace {

TEST(Transition, TargetsCoverEveryReachableLineInBothDirections) {
  const Netlist nl = benchmark_circuit("s27");
  const LineDelayModel dm(nl);
  const TransitionTargets t = build_transition_targets(nl, dm);

  // Every (line, direction) appears either as a target or as untestable.
  std::set<std::pair<NodeId, bool>> seen;
  for (const auto& target : t.targets) {
    seen.insert({target.line, target.rising_at_line});
    ASSERT_LT(target.fault_index, t.faults.size());
  }
  // Lines on complete paths = those with covered entries; check both
  // directions exist for a sample of covered lines.
  std::set<NodeId> lines;
  for (const auto& target : t.targets) lines.insert(target.line);
  EXPECT_GE(lines.size(), nl.node_count() - 2);  // s27: everything reachable
}

TEST(Transition, DirectionBookkeepingMatchesPathParity) {
  const Netlist nl = benchmark_circuit("s27");
  const LineDelayModel dm(nl);
  const TransitionTargets t = build_transition_targets(nl, dm);
  for (const auto& target : t.targets) {
    const TargetFault& tf = t.faults[target.fault_index];
    // Recompute the direction the launch produces at the line.
    bool dir = tf.fault.rising_source;
    for (std::size_t k = 1; k < tf.fault.path.nodes.size(); ++k) {
      dir = dir != is_inverting(nl.node(tf.fault.path.nodes[k]).type);
      if (tf.fault.path.nodes[k] == target.line) break;
    }
    if (tf.fault.path.source() == target.line) dir = tf.fault.rising_source;
    EXPECT_EQ(dir, target.rising_at_line)
        << nl.node(target.line).name << " via "
        << fault_to_string(nl, tf.fault);
  }
}

TEST(Transition, GenerationCoversMostTransitions) {
  const Netlist nl = benchmark_circuit("b03_like");
  const LineDelayModel dm(nl);
  const TransitionTargets t = build_transition_targets(nl, dm);
  ASSERT_FALSE(t.faults.empty());

  GeneratorConfig g;
  const GenerationResult r = generate_tests(nl, t.faults, {}, g);
  const std::size_t covered = covered_transitions(t, r.detected_p0);
  EXPECT_GT(covered, 0u);
  EXPECT_LE(covered, t.targets.size());
  // Detected faults translate into covered line transitions consistently.
  const BatchSimulator fsim(nl);
  const auto resim = fsim.detects_any(r.tests, t.faults);
  EXPECT_EQ(covered_transitions(t, resim), covered);
}

TEST(Transition, FlagSizeValidation) {
  const Netlist nl = benchmark_circuit("s27");
  const LineDelayModel dm(nl);
  const TransitionTargets t = build_transition_targets(nl, dm);
  std::vector<bool> wrong(t.faults.size() + 1, false);
  EXPECT_THROW(covered_transitions(t, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace pdf
