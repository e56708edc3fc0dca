// Miscellaneous edge cases across modules.
#include <gtest/gtest.h>

#include "atpg/generator.hpp"
#include "enrich/enrichment.hpp"
#include "gen/registry.hpp"
#include "netlist/bench_io.hpp"
#include "sim/timed_sim.hpp"
#include "sim/triple_sim.hpp"
#include "testutil/circuits.hpp"

namespace pdf {
namespace {

TEST(EdgeCases, WaveformValueAt) {
  Waveform w;
  w.initial = V3::Zero;
  w.changes = {{5, V3::One}, {9, V3::Zero}};
  EXPECT_EQ(w.value_at(0), V3::Zero);
  EXPECT_EQ(w.value_at(4), V3::Zero);
  EXPECT_EQ(w.value_at(5), V3::One);   // change applies at its timestamp
  EXPECT_EQ(w.value_at(8), V3::One);
  EXPECT_EQ(w.value_at(9), V3::Zero);
  EXPECT_EQ(w.value_at(1000), V3::Zero);
  EXPECT_EQ(w.final_value(), V3::Zero);
  EXPECT_EQ(w.settle_time(), 9);
  EXPECT_FALSE(w.constant());
}

TEST(EdgeCases, InputThatIsAlsoOutput) {
  // A PI directly marked as PO: single-node paths, length 1.
  Netlist nl("pio");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId z = nl.add_gate("z", GateType::And, {a, b});
  nl.mark_output(a);
  nl.mark_output(z);
  nl.finalize();
  const LineDelayModel dm(nl);
  EnumerationConfig cfg;
  cfg.max_faults = 100;
  const auto r = enumerate_longest_paths(dm, cfg);
  bool single_node_path = false;
  for (const auto& p : r.paths) {
    if (p.path.nodes.size() == 1) {
      single_node_path = true;
      EXPECT_EQ(p.path.nodes[0], a);
      // a has consumers z + output tap = 2, so completing crosses a branch.
      EXPECT_EQ(p.length, 2);
    }
  }
  EXPECT_TRUE(single_node_path);
}

TEST(EdgeCases, SingleGateCircuitEndToEnd) {
  const Netlist nl = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n");
  TargetSetConfig cfg;
  cfg.n_p = 10;
  cfg.n_p0 = 1;
  const EnrichmentWorkbench wb(nl, cfg);
  EXPECT_EQ(wb.targets().p_total(), 4u);  // 2 paths x 2 directions
  const GenerationResult r = wb.run_enriched({});
  EXPECT_EQ(r.detected_p0_count() + wb.coverage_of(r).p1_detected, 4u);
  EXPECT_LE(r.tests.size(), 4u);
}

TEST(EdgeCases, WideGateFanin) {
  // An 8-input NOR gate: one path per input, heavy off-path constraints.
  Netlist nl("wide");
  std::vector<NodeId> ins;
  for (int i = 0; i < 8; ++i) ins.push_back(nl.add_input("i" + std::to_string(i)));
  const NodeId z = nl.add_gate("z", GateType::Nor, ins);
  nl.mark_output(z);
  nl.finalize();
  TargetSetConfig cfg;
  cfg.n_p = 64;
  cfg.n_p0 = 4;
  const EnrichmentWorkbench wb(nl, cfg);
  const GenerationResult r = wb.run_enriched({});
  // Every rising fault needs all 7 side inputs steady 0 — satisfiable; the
  // falling fault needs final 0 on the sides — also satisfiable; coverage
  // should be complete.
  const UnionCoverage c = wb.coverage_of(r);
  EXPECT_EQ(c.union_detected(), c.union_total());
}

TEST(EdgeCases, GeneratorDetectedCountOutOfRange) {
  const Netlist nl = testutil::tiny_and_or();
  GenerationResult r;
  EXPECT_EQ(r.detected_count(3), 0u);
}

TEST(EdgeCases, TimedSimConstantInputsProduceConstantWaveforms) {
  const Netlist nl = testutil::reconvergent();
  std::vector<Triple> pis(nl.inputs().size(), kSteady1);
  std::vector<int> sw(nl.inputs().size(), 7);
  std::vector<int> delays(nl.node_count(), 3);
  const auto wf = simulate_timed(nl, pis, sw, delays);
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    EXPECT_TRUE(wf[id].constant()) << nl.node(id).name;
  }
}

TEST(EdgeCases, EnumerationWithFaultsPerPathOne) {
  // Path-counting mode (as in the paper's Table 1) must keep exactly the
  // N_P longest paths when ties allow.
  const Netlist nl = benchmark_circuit("s27");
  const LineDelayModel dm(nl);
  EnumerationConfig cfg;
  cfg.max_faults = 6;
  cfg.faults_per_path = 1;
  const auto r = enumerate_longest_paths(dm, cfg);
  EXPECT_LE(r.paths.size(), 6u + 4u);  // tie tolerance
  EXPECT_EQ(r.paths.front().length, 10);
}

}  // namespace
}  // namespace pdf
