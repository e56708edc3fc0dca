#include "sim/triple_sim.hpp"

#include <gtest/gtest.h>

#include "gen/registry.hpp"
#include "oracle/oracle.hpp"
#include "testutil/circuits.hpp"

namespace pdf {
namespace {

TEST(TripleSim, PiTripleDerivation) {
  EXPECT_EQ(pi_triple(V3::Zero, V3::Zero), kSteady0);
  EXPECT_EQ(pi_triple(V3::One, V3::One), kSteady1);
  EXPECT_EQ(pi_triple(V3::Zero, V3::One), kRise);
  EXPECT_EQ(pi_triple(V3::One, V3::Zero), kFall);
  EXPECT_EQ(pi_triple(V3::X, V3::One), (Triple{V3::X, V3::X, V3::One}));
  EXPECT_EQ(pi_triple(V3::X, V3::X), kAllX);
}

TEST(TripleSim, StableValuesPropagate) {
  const Netlist nl = testutil::tiny_and_or();
  const std::vector<Triple> pis = {kSteady1, kSteady1, kSteady0};
  const auto v = simulate(nl, pis);
  EXPECT_EQ(v[nl.id_of("y")], kSteady1);
  EXPECT_EQ(v[nl.id_of("z")], kSteady1);
}

TEST(TripleSim, TransitionThroughAnd) {
  const Netlist nl = testutil::tiny_and_or();
  // a rises, b steady 1, c steady 0: y rises hazard-free at the stem level
  // (intermediate x, as the transition instant is unknown), z follows.
  const std::vector<Triple> pis = {kRise, kSteady1, kSteady0};
  const auto v = simulate(nl, pis);
  EXPECT_EQ(v[nl.id_of("y")], kRise);
  EXPECT_EQ(v[nl.id_of("z")], kRise);
}

TEST(TripleSim, SteadyControllingValueBlocksHazard) {
  const Netlist nl = testutil::tiny_and_or();
  // b steady 0 pins y at steady 0 no matter what a does.
  const std::vector<Triple> pis = {kRise, kSteady0, kRise};
  const auto v = simulate(nl, pis);
  EXPECT_EQ(v[nl.id_of("y")], kSteady0);
  EXPECT_EQ(v[nl.id_of("z")], kRise);
}

TEST(TripleSim, ReconvergentGlitchIsConservativelyX) {
  // z = NAND(AND(a,b), OR(NOT(a),b)) with b=1: z = NAND(a, 1*) — with a
  // rising, p rises and q is steady 1, so z falls. With b rising instead the
  // intermediate plane must stay x (possible hazard).
  const Netlist nl = testutil::reconvergent();
  {
    const std::vector<Triple> pis = {kRise, kSteady1};
    const auto v = simulate(nl, pis);
    EXPECT_EQ(v[nl.id_of("z")], kFall);
  }
  {
    // Both inputs rising: p = AND(a,b) rises, q = OR(NOT(a), b) is statically
    // 1 but can dip (NOT(a) falls before b rises); z = NAND(p, q) falls with
    // a conservatively unknown intermediate.
    const std::vector<Triple> pis = {kRise, kRise};
    const auto v = simulate(nl, pis);
    const Triple q = v[nl.id_of("q")];
    EXPECT_EQ(q.a1, V3::One);
    EXPECT_EQ(q.a3, V3::One);
    EXPECT_EQ(q.a2, V3::X);  // static 1 with possible hazard
    const Triple z = v[nl.id_of("z")];
    EXPECT_EQ(z.a1, V3::One);
    EXPECT_EQ(z.a3, V3::Zero);
    EXPECT_EQ(z.a2, V3::X);
  }
}

TEST(TripleSim, PlanesMatchIndependentPlaneSimulation) {
  // Property: plane k of the triple simulation equals a plain 3-valued
  // simulation of plane k's PI values. Random circuits and assignments.
  Rng rng(2024);
  for (int iter = 0; iter < 30; ++iter) {
    const Netlist nl = testutil::random_small_netlist(rng);
    std::vector<Triple> pis(nl.inputs().size());
    for (auto& t : pis) {
      const V3 vals[] = {V3::Zero, V3::One, V3::X};
      t = pi_triple(vals[rng.below(3)], vals[rng.below(3)]);
    }
    const auto triple = simulate(nl, pis);
    for (int plane = 0; plane < 3; ++plane) {
      std::vector<V3> pv(pis.size());
      for (std::size_t i = 0; i < pis.size(); ++i) pv[i] = pis[i][plane];
      const auto flat = oracle::simulate_plane(nl, pv);
      for (NodeId id = 0; id < nl.node_count(); ++id) {
        EXPECT_EQ(triple[id][plane], flat[id])
            << nl.node(id).name << " plane " << plane;
      }
    }
  }
}

TEST(TripleSim, WrongPiCountThrows) {
  const Netlist nl = testutil::tiny_and_or();
  std::vector<Triple> pis(2, kSteady0);
  EXPECT_THROW(simulate(nl, pis), std::invalid_argument);
}

TEST(TripleSim, S27PaperExampleValues) {
  // The paper's example test context: the slow-to-rise fault on
  // G1 -> G12 -> G13 requires G7=000, G2=xx0, G1=0x1. Build a test meeting
  // those values and check the on-path transitions appear.
  const Netlist nl = benchmark_circuit("s27");
  std::vector<Triple> pis(nl.inputs().size(), kSteady0);
  auto set = [&](const std::string& name, const Triple& t) {
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      if (nl.node(nl.inputs()[i]).name == name) {
        pis[i] = t;
        return;
      }
    }
    FAIL() << "no input " << name;
  };
  set("G1", kRise);
  set("G7", kSteady0);
  set("G2", kSteady0);
  const auto v = simulate(nl, pis);
  // G12 = NOR(G1, G7): falls. G13 = NOR(G2, G12): rises.
  EXPECT_EQ(v[nl.id_of("G12")], kFall);
  EXPECT_EQ(v[nl.id_of("G13")], kRise);
}

}  // namespace
}  // namespace pdf
