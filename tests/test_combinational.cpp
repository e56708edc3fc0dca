#include "netlist/combinational.hpp"

#include <gtest/gtest.h>

#include "gen/registry.hpp"
#include "netlist/bench_io.hpp"

namespace pdf {
namespace {

TEST(Combinational, S27Extraction) {
  const Netlist seq = parse_bench_string(s27_bench_text(), "s27");
  const Netlist nl = extract_combinational(seq);

  EXPECT_FALSE(nl.has_sequential());
  // 4 real PIs + 3 state inputs.
  EXPECT_EQ(nl.inputs().size(), 7u);
  // G17 plus the three DFF data lines G10, G11, G13.
  EXPECT_EQ(nl.outputs().size(), 4u);

  // The former DFF outputs exist as inputs under their original names.
  for (const char* name : {"G5", "G6", "G7"}) {
    const NodeId id = nl.id_of(name);
    EXPECT_EQ(nl.node(id).type, GateType::Input);
  }
  // The DFF data fanins are marked outputs.
  for (const char* name : {"G10", "G11", "G13"}) {
    EXPECT_TRUE(nl.node(nl.id_of(name)).is_output) << name;
  }
  // G11 keeps its gate fanouts (G17 and G10) while being a pseudo output.
  const Node& g11 = nl.node(nl.id_of("G11"));
  EXPECT_TRUE(g11.is_output);
  EXPECT_EQ(g11.fanout.size(), 2u);
}

TEST(Combinational, IdempotentOnCombinationalNetlist) {
  const Netlist nl = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n");
  const Netlist comb = extract_combinational(nl);
  EXPECT_EQ(comb.node_count(), nl.node_count());
  EXPECT_EQ(comb.inputs().size(), 2u);
  EXPECT_EQ(comb.outputs().size(), 1u);
}

TEST(Combinational, DffChainBecomesInputOutputPair) {
  const Netlist seq = parse_bench_string(R"(
    INPUT(a)
    OUTPUT(z)
    s1 = DFF(y)
    y = NOT(s1)
    z = AND(a, y)
  )");
  const Netlist comb = extract_combinational(seq);
  EXPECT_EQ(comb.inputs().size(), 2u);   // a + s1
  EXPECT_EQ(comb.outputs().size(), 2u);  // z + y (data of s1)
  EXPECT_TRUE(comb.node(comb.id_of("y")).is_output);
}

TEST(Combinational, OutputNamingADffIsSkipped) {
  const Netlist seq = parse_bench_string(R"(
    INPUT(a)
    OUTPUT(s1)
    s1 = DFF(y)
    y = NOT(a)
  )");
  const Netlist comb = extract_combinational(seq);
  // The observed state element contributes no combinational output beyond
  // the DFF data tap itself.
  EXPECT_EQ(comb.outputs().size(), 1u);
  EXPECT_TRUE(comb.node(comb.id_of("y")).is_output);
}

TEST(Combinational, RequiresFinalizedInput) {
  Netlist nl;
  nl.add_input("a");
  EXPECT_THROW(extract_combinational(nl), std::logic_error);
}

}  // namespace
}  // namespace pdf
