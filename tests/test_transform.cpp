#include "netlist/transform.hpp"

#include <gtest/gtest.h>

#include "netlist/bench_io.hpp"
#include "oracle/oracle.hpp"
#include "testutil/circuits.hpp"

namespace pdf {
namespace {

// Exhaustively compares the boolean functions of two primitive netlists with
// identically named inputs/outputs.
void expect_equivalent(const Netlist& a, const Netlist& b) {
  ASSERT_EQ(a.inputs().size(), b.inputs().size());
  const std::size_t n = a.inputs().size();
  ASSERT_LE(n, 12u);
  for (std::size_t code = 0; code < (std::size_t{1} << n); ++code) {
    std::vector<V3> va(n), vb(n);
    for (std::size_t i = 0; i < n; ++i) {
      va[i] = (code >> i) & 1 ? V3::One : V3::Zero;
    }
    // Align by input name.
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& name = a.node(a.inputs()[i]).name;
      bool found = false;
      for (std::size_t j = 0; j < n; ++j) {
        if (b.node(b.inputs()[j]).name == name) {
          vb[j] = va[i];
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found) << name;
    }
    const std::vector<V3> ra = oracle::simulate_plane(a, va);
    const std::vector<V3> rb = oracle::simulate_plane(b, vb);
    for (NodeId oa : a.outputs()) {
      const std::string& name = a.node(oa).name;
      if (!b.find(name)) continue;  // helper-renamed output
      EXPECT_EQ(ra[oa], rb[b.id_of(name)])
          << "output " << name << " differs at minterm " << code;
    }
  }
}

TEST(Transform, Xor2Decomposition) {
  const Netlist nl = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = XOR(a, b)\n");
  const Netlist flat = decompose_xor(nl);
  EXPECT_TRUE(is_atpg_ready(flat));
  EXPECT_FALSE(is_atpg_ready(nl));
  expect_equivalent(nl, flat);
}

TEST(Transform, Xnor3Decomposition) {
  const Netlist nl = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z)\nz = XNOR(a, b, c)\n");
  const Netlist flat = decompose_xor(nl);
  EXPECT_TRUE(is_atpg_ready(flat));
  expect_equivalent(nl, flat);
}

TEST(Transform, MixedCircuitKeepsNames) {
  const Netlist nl = parse_bench_string(R"(
    INPUT(a)
    INPUT(b)
    INPUT(c)
    OUTPUT(z)
    OUTPUT(w)
    x = XOR(a, b)
    z = AND(x, c)
    w = NOR(x, a)
  )");
  const Netlist flat = decompose_xor(nl);
  EXPECT_TRUE(is_atpg_ready(flat));
  // Non-XOR gates keep their names; the XOR output name survives as a BUF.
  EXPECT_TRUE(flat.find("z").has_value());
  EXPECT_TRUE(flat.find("w").has_value());
  EXPECT_TRUE(flat.find("x").has_value());
  EXPECT_EQ(flat.node(flat.id_of("x")).type, GateType::Buf);
  expect_equivalent(nl, flat);
}

TEST(Transform, NoXorIsStructurallyIdentical) {
  const Netlist nl = testutil::reconvergent();
  const Netlist flat = decompose_xor(nl);
  EXPECT_EQ(flat.node_count(), nl.node_count());
  EXPECT_TRUE(is_atpg_ready(flat));
}

TEST(Transform, WideXorChain) {
  const Netlist nl = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nOUTPUT(z)\n"
      "z = XOR(a, b, c, d, e)\n");
  const Netlist flat = decompose_xor(nl);
  EXPECT_TRUE(is_atpg_ready(flat));
  expect_equivalent(nl, flat);
}

TEST(Transform, IsAtpgReadyDetectsDff) {
  const Netlist nl = parse_bench_string(
      "INPUT(a)\nOUTPUT(z)\ns = DFF(z)\nz = AND(a, s)\n");
  EXPECT_FALSE(is_atpg_ready(nl));
}

}  // namespace
}  // namespace pdf
