#include "faults/requirements.hpp"

#include <gtest/gtest.h>

#include "gen/registry.hpp"
#include "testutil/circuits.hpp"

namespace pdf {
namespace {

using testutil::named_path;

std::optional<Triple> req_on(const FaultRequirements& r, NodeId line) {
  for (const auto& v : r.values) {
    if (v.line == line) return v.value;
  }
  return std::nullopt;
}

TEST(Requirements, PaperS27Example) {
  // Paper Section 2.1: for the slow-to-rise fault on the path through
  // G1 -> G12 -> G13 (its lines (2,9,10,15)), A(p) consists of the off-path
  // values 000 on G7 (line 7) and xx0 on G2 (line 3), and the source value
  // 0x1 on G1 (line 2).
  const Netlist nl = benchmark_circuit("s27");
  PathDelayFault f{named_path(nl, {"G1", "G12", "G13"}), true, 4};
  const FaultRequirements r = build_requirements(nl, f);
  EXPECT_FALSE(r.conflicting);

  EXPECT_EQ(req_on(r, nl.id_of("G1")), kRise);      // source 0x1
  EXPECT_EQ(req_on(r, nl.id_of("G7")), kSteady0);   // off-path 000
  EXPECT_EQ(req_on(r, nl.id_of("G2")), kFinal0);    // off-path xx0
  // Implied on-path transitions.
  EXPECT_EQ(req_on(r, nl.id_of("G12")), kFall);
  EXPECT_EQ(req_on(r, nl.id_of("G13")), kRise);
  // Nothing else.
  EXPECT_EQ(r.values.size(), 5u);
}

TEST(Requirements, SlowToFallDualExample) {
  const Netlist nl = benchmark_circuit("s27");
  PathDelayFault f{named_path(nl, {"G1", "G12", "G13"}), false, 4};
  const FaultRequirements r = build_requirements(nl, f);
  EXPECT_FALSE(r.conflicting);
  EXPECT_EQ(req_on(r, nl.id_of("G1")), kFall);
  // G1 falling into NOR(G1, G7): ends at the non-controlling value 0, so
  // G7 only needs final 0.
  EXPECT_EQ(req_on(r, nl.id_of("G7")), kFinal0);
  // G12 rises into NOR(G2, G12): ends at the controlling value 1, so G2
  // must be steady non-controlling.
  EXPECT_EQ(req_on(r, nl.id_of("G2")), kSteady0);
  EXPECT_EQ(req_on(r, nl.id_of("G13")), kFall);
}

TEST(Requirements, InversionParityAlongLongPath) {
  const Netlist nl = benchmark_circuit("s27");
  // G0 -> G14(NOT) -> G8(AND) -> G15(OR) -> G9(NAND) -> G11(NOR) -> G17(NOT)
  PathDelayFault f{
      named_path(nl, {"G0", "G14", "G8", "G15", "G9", "G11", "G17"}), true, 10};
  const FaultRequirements r = build_requirements(nl, f);
  EXPECT_FALSE(r.conflicting);
  EXPECT_EQ(req_on(r, nl.id_of("G0")), kRise);
  EXPECT_EQ(req_on(r, nl.id_of("G14")), kFall);   // NOT
  EXPECT_EQ(req_on(r, nl.id_of("G8")), kFall);    // AND keeps parity
  EXPECT_EQ(req_on(r, nl.id_of("G15")), kFall);   // OR keeps parity
  EXPECT_EQ(req_on(r, nl.id_of("G9")), kRise);    // NAND inverts
  EXPECT_EQ(req_on(r, nl.id_of("G11")), kFall);   // NOR inverts
  EXPECT_EQ(req_on(r, nl.id_of("G17")), kRise);   // NOT inverts

  // Off-path constraints: G8 falls into AND(G14, G6) — wait, G8 IS the AND;
  // its side input G6 sees the on-path transition G14 1->0 ending at the
  // controlling value of AND: steady non-controlling 111 required.
  EXPECT_EQ(req_on(r, nl.id_of("G6")), kSteady1);
  // G15 = OR(G12, G8): on-path G8 falls to the non-controlling value of OR;
  // G12 needs final 0 only.
  EXPECT_EQ(req_on(r, nl.id_of("G12")), kFinal0);
  // G9 = NAND(G16, G15): on-path G15 falls to the controlling value of NAND;
  // G16 must be steady 1.
  EXPECT_EQ(req_on(r, nl.id_of("G16")), kSteady1);
  // G11 = NOR(G5, G9): on-path G9 rises to the controlling value of NOR;
  // G5 must be steady 0.
  EXPECT_EQ(req_on(r, nl.id_of("G5")), kSteady0);
}

TEST(Requirements, ConflictingOffPathConstraintsDetected) {
  // z = AND(a, n), n = NOT(a): the off-path constraint on n conflicts with
  // the implied on-path transition when the path runs a -> z, because n
  // must be steady 1 while a rises... n = NOT(a) is NOT on the path, so A(p)
  // only sees (a: rise, n: steady 1, z: rise) — no *local* conflict. Build
  // instead a case where the off-path line IS on the path: z = AND(a, b),
  // w = OR(z, a) and path a -> z -> w: at w, off-path input a must be xx0
  // while a itself must rise (xx1): conflict.
  Netlist nl("conf");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId z = nl.add_gate("z", GateType::And, {a, b});
  const NodeId w = nl.add_gate("w", GateType::Or, {z, a});
  nl.mark_output(w);
  nl.finalize();
  (void)b;

  PathDelayFault f{Path{{a, z, w}}, true, 3};
  const FaultRequirements r = build_requirements(nl, f);
  EXPECT_TRUE(r.conflicting);
}

TEST(Requirements, StructuralValidation) {
  const Netlist nl = benchmark_circuit("s27");
  // Path not starting at a PI.
  PathDelayFault f1{named_path(nl, {"G14", "G8"}), true, 2};
  EXPECT_THROW(build_requirements(nl, f1), std::invalid_argument);
  // Disconnected consecutive nodes.
  PathDelayFault f2{named_path(nl, {"G0", "G12"}), true, 2};
  EXPECT_THROW(build_requirements(nl, f2), std::runtime_error);
  // Path not ending at an output.
  PathDelayFault f3{named_path(nl, {"G0", "G14"}), true, 2};
  EXPECT_THROW(build_requirements(nl, f3), std::invalid_argument);
  // Empty path.
  PathDelayFault f4{Path{}, true, 0};
  EXPECT_THROW(build_requirements(nl, f4), std::invalid_argument);
}

TEST(RequirementSet, AddMergeConflict) {
  // The merge-on-add set behind build_requirements. b is the off-path input
  // of every gate on a -> g1 -> g2 -> g3: the rising transitions into g1
  // (AND) and g2 (NAND) end non-controlling (b = xx1 twice) and the falling
  // one into g3 ends controlling. With g3 = AND that asks b = 111, which
  // merges with xx1; with g3 = OR it asks b = xx0, which conflicts, and the
  // first value stays.
  for (const GateType last : {GateType::And, GateType::Or}) {
    Netlist nl("merge");
    const NodeId a = nl.add_input("a");
    const NodeId b = nl.add_input("b");
    const NodeId g1 = nl.add_gate("g1", GateType::And, {a, b});
    const NodeId g2 = nl.add_gate("g2", GateType::Nand, {g1, b});
    const NodeId g3 = nl.add_gate("g3", last, {g2, b});
    nl.mark_output(g3);
    nl.finalize();

    const PathDelayFault f{Path{{a, g1, g2, g3}}, true, 4};
    const FaultRequirements r = build_requirements(nl, f);
    const bool merges = last == GateType::And;
    EXPECT_EQ(r.conflicting, !merges);
    EXPECT_EQ(req_on(r, b), merges ? kSteady1 : kFinal1);
    // One entry per line (a, b, g1, g2, g3), in ascending line order.
    ASSERT_EQ(r.values.size(), 5u);
    for (std::size_t i = 0; i + 1 < r.values.size(); ++i) {
      EXPECT_LT(r.values[i].line, r.values[i + 1].line);
    }
  }
}

TEST(Requirements, ToStringRendering) {
  const Netlist nl = benchmark_circuit("s27");
  PathDelayFault f{named_path(nl, {"G2", "G13"}), true, 2};
  const FaultRequirements r = build_requirements(nl, f);
  const std::string s = requirements_to_string(nl, r.values);
  EXPECT_NE(s.find("G2=0x1"), std::string::npos);
}

}  // namespace
}  // namespace pdf
