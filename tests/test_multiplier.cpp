#include <gtest/gtest.h>

#include "gen/registry.hpp"
#include "gen/structured.hpp"
#include "netlist/transform.hpp"
#include "oracle/oracle.hpp"
#include "paths/count.hpp"

namespace pdf {
namespace {

unsigned read_product(const Netlist& nl, const std::vector<V3>& values) {
  // Outputs were marked LSB-first during construction.
  unsigned out = 0;
  for (std::size_t k = 0; k < nl.outputs().size(); ++k) {
    if (values[nl.outputs()[k]] == V3::One) out |= 1u << k;
  }
  return out;
}

TEST(Multiplier, ComputesProductsExhaustively4x4) {
  const std::size_t bits = 4;
  const Netlist nl = array_multiplier(bits);
  EXPECT_TRUE(is_atpg_ready(nl));
  ASSERT_EQ(nl.inputs().size(), 2 * bits);
  ASSERT_EQ(nl.outputs().size(), 2 * bits);

  for (unsigned a = 0; a < (1u << bits); ++a) {
    for (unsigned b = 0; b < (1u << bits); ++b) {
      std::vector<V3> pis(nl.inputs().size());
      for (std::size_t i = 0; i < bits; ++i) {
        pis[i] = (a >> i) & 1 ? V3::One : V3::Zero;
        pis[bits + i] = (b >> i) & 1 ? V3::One : V3::Zero;
      }
      const auto values = oracle::simulate_plane(nl, pis);
      EXPECT_EQ(read_product(nl, values), a * b) << a << " * " << b;
    }
  }
}

TEST(Multiplier, SpotChecks8x8) {
  const std::size_t bits = 8;
  const Netlist nl = benchmark_circuit("mult8");
  for (const auto& [a, b] : {std::pair<unsigned, unsigned>{0, 0},
                             {255, 255},
                             {200, 3},
                             {17, 19},
                             {128, 2},
                             {99, 101}}) {
    std::vector<V3> pis(nl.inputs().size());
    for (std::size_t i = 0; i < bits; ++i) {
      pis[i] = (a >> i) & 1 ? V3::One : V3::Zero;
      pis[bits + i] = (b >> i) & 1 ? V3::One : V3::Zero;
    }
    const auto values = oracle::simulate_plane(nl, pis);
    EXPECT_EQ(read_product(nl, values), a * b) << a << " * " << b;
  }
}

TEST(Multiplier, HasDenseNearCriticalBand) {
  const Netlist nl = benchmark_circuit("mult8");
  const PathCounts pc = count_paths(nl);
  EXPECT_GE(pc.total, 10000u);  // thousands of structural paths
}

TEST(Multiplier, RejectsDegenerateWidth) {
  EXPECT_THROW(array_multiplier(1), std::invalid_argument);
}

TEST(RegistryExtras, C17IsExact) {
  const Netlist nl = benchmark_circuit("c17");
  EXPECT_EQ(nl.inputs().size(), 5u);
  EXPECT_EQ(nl.outputs().size(), 2u);
  EXPECT_EQ(nl.gate_count(), 6u);
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const GateType t = nl.node(id).type;
    EXPECT_TRUE(t == GateType::Input || t == GateType::Nand);
  }
  // Functional spot check: with all inputs 0 the first-level NANDs output 1,
  // so both output NANDs see (1, 1) and produce 0.
  std::vector<V3> pis(5, V3::Zero);
  const auto v = oracle::simulate_plane(nl, pis);
  for (NodeId out : nl.outputs()) EXPECT_EQ(v[out], V3::Zero);
}

}  // namespace
}  // namespace pdf
