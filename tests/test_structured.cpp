#include "gen/structured.hpp"

#include <gtest/gtest.h>

#include "netlist/transform.hpp"
#include "oracle/oracle.hpp"

namespace pdf {
namespace {

// Plane-0 functional check of the adder over random vectors.
TEST(Structured, RippleCarryAdderComputesSums) {
  const std::size_t bits = 6;
  const Netlist nl = ripple_carry_adder(bits);
  EXPECT_TRUE(is_atpg_ready(nl));
  ASSERT_EQ(nl.inputs().size(), 2 * bits + 1);
  ASSERT_EQ(nl.outputs().size(), bits + 1);

  for (unsigned a = 0; a < (1u << bits); a += 5) {
    for (unsigned b = 0; b < (1u << bits); b += 7) {
      for (unsigned cin = 0; cin <= 1; ++cin) {
        std::vector<V3> pis(nl.inputs().size());
        for (std::size_t i = 0; i < bits; ++i) {
          pis[i] = (a >> i) & 1 ? V3::One : V3::Zero;          // a bits
          pis[bits + i] = (b >> i) & 1 ? V3::One : V3::Zero;   // b bits
        }
        pis[2 * bits] = cin ? V3::One : V3::Zero;
        const auto v = oracle::simulate_plane(nl, pis);
        const unsigned expect = a + b + cin;
        for (std::size_t i = 0; i < bits; ++i) {
          const NodeId sum = nl.id_of("s" + std::to_string(i) + "_sc_x");
          EXPECT_EQ(v[sum], (expect >> i) & 1 ? V3::One : V3::Zero)
              << "a=" << a << " b=" << b << " cin=" << cin << " bit " << i;
        }
        const NodeId cout = nl.id_of("s" + std::to_string(bits - 1) + "_c");
        EXPECT_EQ(v[cout], (expect >> bits) & 1 ? V3::One : V3::Zero);
      }
    }
  }
}

TEST(Structured, BarrelShifterRoutesData) {
  const Netlist nl = mux_barrel_shifter(8, 3);
  EXPECT_TRUE(is_atpg_ready(nl));
  ASSERT_EQ(nl.inputs().size(), 8u + 3u);
  ASSERT_EQ(nl.outputs().size(), 8u);
  // All selects 0: identity routing.
  std::vector<V3> pis(nl.inputs().size(), V3::Zero);
  pis[3] = V3::One;  // d3 = 1
  const auto v = oracle::simulate_plane(nl, pis);
  std::size_t ones = 0;
  for (NodeId out : nl.outputs()) ones += v[out] == V3::One;
  EXPECT_EQ(ones, 1u);
}

TEST(Structured, CarrySkipChainLongestPathRunsWholeChain) {
  const std::size_t stages = 10;
  const Netlist nl = carry_skip_chain(stages);
  EXPECT_TRUE(is_atpg_ready(nl));
  // Depth: two gates per stage.
  EXPECT_EQ(nl.depth(), static_cast<int>(2 * stages));
  // Functional: all g=1, k=0 propagates c0.
  std::vector<V3> pis(nl.inputs().size(), V3::Zero);
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    const std::string& name = nl.node(nl.inputs()[i]).name;
    if (name.find("_g") != std::string::npos) pis[i] = V3::One;
    if (name == "c0") pis[i] = V3::One;
  }
  const auto v = oracle::simulate_plane(nl, pis);
  for (NodeId out : nl.outputs()) EXPECT_EQ(v[out], V3::One);
}

TEST(Structured, GeneratorsRejectDegenerateSizes) {
  EXPECT_THROW(ripple_carry_adder(0), std::invalid_argument);
  EXPECT_THROW(mux_barrel_shifter(1, 2), std::invalid_argument);
  EXPECT_THROW(mux_barrel_shifter(8, 0), std::invalid_argument);
  EXPECT_THROW(carry_skip_chain(0), std::invalid_argument);
}

}  // namespace
}  // namespace pdf
