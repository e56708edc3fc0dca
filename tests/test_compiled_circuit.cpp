#include "core/compiled_circuit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gen/random_circuit.hpp"
#include "gen/registry.hpp"
#include "oracle/oracle.hpp"
#include "sim/triple_sim.hpp"
#include "testutil/circuits.hpp"

namespace pdf {
namespace {

// Every structural fact the compiled view exposes must agree with the
// netlist it was built from: CSR adjacency (including neighbor order),
// types, levels, output flags, PI maps, and the level-packed topo order.
void check_structure(const Netlist& nl, const CompiledCircuit& cc) {
  ASSERT_EQ(cc.node_count(), nl.node_count());
  ASSERT_EQ(&cc.netlist(), &nl);

  std::size_t max_fanin = 0;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const Node& n = nl.node(id);
    EXPECT_EQ(cc.type(id), n.type);
    EXPECT_EQ(cc.level(id), n.level);
    EXPECT_EQ(cc.is_output(id), n.is_output);

    const auto fi = cc.fanins(id);
    ASSERT_EQ(fi.size(), n.fanin.size());
    EXPECT_TRUE(std::equal(fi.begin(), fi.end(), n.fanin.begin()));
    const auto fo = cc.fanouts(id);
    ASSERT_EQ(fo.size(), n.fanout.size());
    EXPECT_TRUE(std::equal(fo.begin(), fo.end(), n.fanout.begin()));
    max_fanin = std::max(max_fanin, n.fanin.size());
  }
  EXPECT_EQ(cc.max_fanin(), max_fanin);
  EXPECT_LE(cc.max_fanin(), kMaxGateFanin);

  // PI index map is the inverse of inputs().
  ASSERT_EQ(cc.inputs().size(), nl.inputs().size());
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    EXPECT_EQ(cc.inputs()[i], nl.inputs()[i]);
    EXPECT_EQ(cc.input_index(nl.inputs()[i]), static_cast<int>(i));
  }
  std::vector<char> is_pi(nl.node_count(), 0);
  for (NodeId pi : nl.inputs()) is_pi[pi] = 1;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (!is_pi[id]) EXPECT_EQ(cc.input_index(id), -1);
  }
  ASSERT_EQ(cc.outputs().size(), nl.outputs().size());
  EXPECT_TRUE(std::equal(cc.outputs().begin(), cc.outputs().end(),
                         nl.outputs().begin()));

  // Topo order: a permutation of all nodes, packed by non-decreasing level,
  // with level_offsets() delimiting each band and fanins preceding users.
  const auto topo = cc.topo_order();
  ASSERT_EQ(topo.size(), nl.node_count());
  std::vector<char> seen(nl.node_count(), 0);
  int prev_level = 0;
  for (NodeId id : topo) {
    EXPECT_FALSE(seen[id]);
    seen[id] = 1;
    EXPECT_GE(cc.level(id), prev_level);
    prev_level = cc.level(id);
    for (NodeId f : cc.fanins(id)) EXPECT_TRUE(seen[f]);
  }
  const auto off = cc.level_offsets();
  ASSERT_EQ(static_cast<int>(off.size()), cc.depth() + 2);
  EXPECT_EQ(off.front(), 0u);
  EXPECT_EQ(off.back(), nl.node_count());
  for (int lv = 0; lv <= cc.depth(); ++lv) {
    const auto band = cc.level_nodes(lv);
    EXPECT_EQ(band.size(), off[lv + 1] - off[lv]);
    for (NodeId id : band) EXPECT_EQ(cc.level(id), lv);
  }
  EXPECT_FALSE(cc.has_sequential());
}

TEST(CompiledCircuit, StructureMatchesNetlist) {
  const Netlist tiny = testutil::tiny_and_or();
  check_structure(tiny, CompiledCircuit(tiny));
  for (const char* name : {"s27", "s344_like", "s1196_like"}) {
    const Netlist nl = benchmark_circuit(name);
    check_structure(nl, CompiledCircuit(nl));
  }
  Rng rng(77);
  for (int iter = 0; iter < 20; ++iter) {
    const Netlist nl = testutil::random_small_netlist(rng);
    check_structure(nl, CompiledCircuit(nl));
  }
}

TEST(CompiledCircuit, UnfinalizedNetlistRejected) {
  Netlist nl("raw");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  nl.mark_output(nl.add_gate("y", GateType::And, {a, b}));
  EXPECT_THROW(CompiledCircuit cc(nl), std::logic_error);
}

TEST(CompiledCircuit, FinalizeEnforcesFaninBound) {
  Netlist nl("wide");
  std::vector<NodeId> pis;
  for (std::size_t i = 0; i < kMaxGateFanin + 1; ++i) {
    pis.push_back(nl.add_input("i" + std::to_string(i)));
  }
  nl.mark_output(nl.add_gate("w", GateType::And, pis));
  EXPECT_THROW(nl.finalize(), std::runtime_error);
}

// The compiled simulators must be bit-identical to the oracle's definitional
// simulators on every line, for random circuits and random assignments
// (including x pattern values).
TEST(CompiledCircuit, DifferentialTripleSimulation) {
  Rng rng(2026);
  SimScratch scratch;
  for (int iter = 0; iter < 40; ++iter) {
    const Netlist nl = testutil::random_small_netlist(rng);
    const CompiledCircuit cc(nl);
    std::vector<Triple> pis(nl.inputs().size());
    for (auto& t : pis) {
      const V3 vals[] = {V3::Zero, V3::One, V3::X};
      t = pi_triple(vals[rng.below(3)], vals[rng.below(3)]);
    }
    const auto ref = oracle::simulate(nl, pis);
    const auto compiled = simulate(cc, pis, scratch);
    ASSERT_EQ(compiled.size(), ref.size());
    for (NodeId id = 0; id < nl.node_count(); ++id) {
      EXPECT_EQ(compiled[id], ref[id]) << nl.node(id).name;
    }
  }
}

TEST(CompiledCircuit, DifferentialOnGeneratedBenchmarks) {
  SimScratch scratch;
  Rng rng(9001);
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    RandomCircuitConfig cfg;
    cfg.name = "diff";
    cfg.seed = seed;
    cfg.n_inputs = 16;
    cfg.n_gates = 120;
    cfg.levels = 10;
    const Netlist nl = generate_random_circuit(cfg);
    const CompiledCircuit cc(nl);
    check_structure(nl, cc);
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<Triple> pis(nl.inputs().size());
      for (auto& t : pis) {
        const V3 vals[] = {V3::Zero, V3::One, V3::X};
        t = pi_triple(vals[rng.below(3)], vals[rng.below(3)]);
      }
      const auto ref = oracle::simulate(nl, pis);
      const auto compiled = simulate(cc, pis, scratch);
      for (NodeId id = 0; id < nl.node_count(); ++id) {
        ASSERT_EQ(compiled[id], ref[id]) << "seed " << seed << " node " << id;
      }
    }
  }
}

TEST(CompiledCircuit, S27GoldenValues) {
  // The paper's s27 example (Figure 1): G1 rising with G7=G2=steady 0 makes
  // G12 fall and G13 rise — through the compiled path.
  const Netlist nl = benchmark_circuit("s27");
  const CompiledCircuit cc(nl);
  SimScratch scratch;
  std::vector<Triple> pis(cc.inputs().size(), kSteady0);
  auto set = [&](const std::string& name, const Triple& t) {
    for (std::size_t i = 0; i < cc.inputs().size(); ++i) {
      if (nl.node(cc.inputs()[i]).name == name) {
        pis[i] = t;
        return;
      }
    }
    FAIL() << "no input " << name;
  };
  set("G1", kRise);
  set("G7", kSteady0);
  set("G2", kSteady0);
  const auto v = simulate(cc, pis, scratch);
  EXPECT_EQ(v[nl.id_of("G12")], kFall);
  EXPECT_EQ(v[nl.id_of("G13")], kRise);
}

TEST(CompiledCircuit, ScratchIsReusedAcrossCircuits) {
  // One scratch arena serves circuits of different sizes back to back.
  SimScratch scratch;
  Rng rng(31);
  const Netlist small = testutil::tiny_and_or();
  const Netlist big = benchmark_circuit("s1196_like");
  const CompiledCircuit cs(small), cb(big);
  std::vector<Triple> pi_small(small.inputs().size(), kRise);
  std::vector<Triple> pi_big(big.inputs().size(), kSteady1);
  const auto a = simulate(cs, pi_small, scratch);
  EXPECT_EQ(a.size(), small.node_count());
  const auto b = simulate(cb, pi_big, scratch);
  EXPECT_EQ(b.size(), big.node_count());
  const auto fresh = simulate(big, pi_big);  // compiled with its own scratch
  for (NodeId id = 0; id < big.node_count(); ++id) {
    ASSERT_EQ(b[id], fresh[id]);
  }
}

TEST(CompiledCircuit, WrongPiCountThrows) {
  const Netlist nl = testutil::tiny_and_or();
  const CompiledCircuit cc(nl);
  SimScratch scratch;
  std::vector<Triple> pis(2, kSteady0);
  EXPECT_THROW(simulate(cc, pis, scratch), std::invalid_argument);
}

}  // namespace
}  // namespace pdf
