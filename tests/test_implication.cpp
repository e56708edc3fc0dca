#include "implication/implication.hpp"

#include <gtest/gtest.h>

#include "faults/fault.hpp"
#include "gen/registry.hpp"
#include "paths/enumerate.hpp"
#include "sim/triple_sim.hpp"
#include "testutil/circuits.hpp"

namespace pdf {
namespace {

TEST(Implication, ForwardPropagation) {
  const Netlist nl = testutil::tiny_and_or();
  ImplicationEngine eng(nl);
  const ValueRequirement reqs[] = {
      {nl.id_of("a"), kSteady1},
      {nl.id_of("b"), kSteady1},
  };
  const ImplicationResult r = eng.imply(reqs);
  ASSERT_TRUE(r.consistent);
  EXPECT_EQ(r.values[nl.id_of("y")], kSteady1);
  EXPECT_EQ(r.values[nl.id_of("z")], kSteady1);
}

TEST(Implication, BackwardAndForcesAllInputs) {
  const Netlist nl = testutil::tiny_and_or();
  ImplicationEngine eng(nl);
  const ValueRequirement reqs[] = {{nl.id_of("y"), kSteady1}};
  const ImplicationResult r = eng.imply(reqs);
  ASSERT_TRUE(r.consistent);
  EXPECT_EQ(r.values[nl.id_of("a")], kSteady1);
  EXPECT_EQ(r.values[nl.id_of("b")], kSteady1);
  EXPECT_EQ(r.values[nl.id_of("z")], kSteady1);  // forward through OR
}

TEST(Implication, BackwardLastFreeInput) {
  // y = AND(a, b) required 0 with a already forced 1 -> b must be 0 in that
  // plane.
  const Netlist nl = testutil::tiny_and_or();
  ImplicationEngine eng(nl);
  const ValueRequirement reqs[] = {
      {nl.id_of("y"), final_only(V3::Zero)},
      {nl.id_of("a"), kSteady1},
  };
  const ImplicationResult r = eng.imply(reqs);
  ASSERT_TRUE(r.consistent);
  EXPECT_EQ(r.values[nl.id_of("b")].a3, V3::Zero);
  EXPECT_EQ(r.values[nl.id_of("b")].a1, V3::X);
}

TEST(Implication, PiCouplingMidForcesPatterns) {
  // A steady requirement on a PI forces both pattern planes.
  const Netlist nl = testutil::tiny_and_or();
  ImplicationEngine eng(nl);
  const ValueRequirement reqs[] = {
      {nl.id_of("a"), Triple{V3::X, V3::One, V3::X}}};
  const ImplicationResult r = eng.imply(reqs);
  ASSERT_TRUE(r.consistent);
  EXPECT_EQ(r.values[nl.id_of("a")], kSteady1);
}

TEST(Implication, PiCouplingPatternsForceMid) {
  const Netlist nl = testutil::tiny_and_or();
  ImplicationEngine eng(nl);
  const ValueRequirement reqs[] = {
      {nl.id_of("a"), Triple{V3::One, V3::X, V3::One}}};
  const ImplicationResult r = eng.imply(reqs);
  ASSERT_TRUE(r.consistent);
  EXPECT_EQ(r.values[nl.id_of("a")].a2, V3::One);
}

TEST(Implication, DetectsContradictionThroughReconvergence) {
  // z = NAND(p, q), p = AND(a, b), q = OR(NOT(a), b).
  // Requiring p=11x... steady 1 forces a=1, b=1, which forces q=1 and z=0;
  // also requiring z=1 must contradict.
  const Netlist nl = testutil::reconvergent();
  ImplicationEngine eng(nl);
  const ValueRequirement reqs[] = {
      {nl.id_of("p"), kSteady1},
      {nl.id_of("z"), kSteady1},
  };
  EXPECT_TRUE(eng.contradicts(reqs));
}

TEST(Implication, ConsistentRequirementsStayConsistent) {
  const Netlist nl = testutil::reconvergent();
  ImplicationEngine eng(nl);
  const ValueRequirement reqs[] = {{nl.id_of("p"), kSteady1}};
  EXPECT_FALSE(eng.contradicts(reqs));
}

TEST(Implication, SoundnessOnRandomCircuits) {
  // Property: if implication declares a contradiction for requirements
  // seeding only PI/stem values, then no fully specified binary two-pattern
  // test satisfies them (checked by exhaustive simulation on small
  // circuits). Conversely implied values must agree with every satisfying
  // assignment.
  Rng rng(31415);
  int circuits = 0;
  for (int iter = 0; iter < 60 && circuits < 12; ++iter) {
    const Netlist nl = testutil::random_small_netlist(rng);
    if (nl.inputs().size() > 5) continue;
    ++circuits;
    ImplicationEngine eng(nl);

    for (int trial = 0; trial < 10; ++trial) {
      // Random requirement set over random lines.
      std::vector<ValueRequirement> reqs;
      const std::size_t n_reqs = 1 + rng.below(3);
      for (std::size_t k = 0; k < n_reqs; ++k) {
        const NodeId line = static_cast<NodeId>(rng.below(nl.node_count()));
        static const Triple kChoices[] = {kSteady0, kSteady1, kRise,
                                          kFall,    kFinal0,  kFinal1};
        reqs.push_back({line, kChoices[rng.below(6)]});
      }
      const ImplicationResult imp = eng.imply(reqs);

      bool any_satisfying = false;
      testutil::for_each_binary_test(
          nl.inputs().size(), [&](const std::vector<Triple>& pis) {
            const auto values = simulate(nl, pis);
            for (const auto& r : reqs) {
              if (!values[r.line].covers(r.value)) return;
            }
            any_satisfying = true;
            if (imp.consistent) {
              // Every implied specified component must hold in every
              // satisfying assignment.
              for (NodeId id = 0; id < nl.node_count(); ++id) {
                for (int plane = 0; plane < 3; ++plane) {
                  const V3 implied = imp.values[id][plane];
                  if (is_specified(implied)) {
                    EXPECT_EQ(values[id][plane], implied)
                        << nl.node(id).name << " plane " << plane;
                  }
                }
              }
            }
          });
      if (!imp.consistent) {
        EXPECT_FALSE(any_satisfying)
            << "implication declared contradiction but a test exists";
      }
    }
  }
  EXPECT_GE(circuits, 5);
}

// Incremental closure against a new engine's imply() on a table circuit: a
// seeded script of extend() calls over path-fault requirement sets and
// random triples, each followed by commit(), undo() or clear(). The
// incremental values must equal the from-scratch ones node by node, and the
// contradiction verdicts must agree, including after a contradiction.
TEST(Implication, ExtendUndoMatchesFromScratch) {
  const Netlist nl = benchmark_circuit("b03_like");
  const LineDelayModel dm(nl);
  EnumerationConfig ecfg;
  ecfg.max_faults = 200;
  std::vector<std::vector<ValueRequirement>> sets;
  for (const auto& f :
       faults_for_paths(enumerate_longest_paths(dm, ecfg).paths)) {
    FaultRequirements reqs = build_requirements(nl, f, Sensitization::Robust);
    if (!reqs.conflicting) sets.push_back(std::move(reqs.values));
  }
  ASSERT_GE(sets.size(), 20u);
  Rng rng(2718);
  static const Triple kChoices[] = {kSteady0, kSteady1, kRise,
                                    kFall,    kFinal0,  kFinal1,
                                    Triple{V3::X, V3::One, V3::X}};
  for (int k = 0; k < 10; ++k) {
    sets.push_back({{static_cast<NodeId>(rng.below(nl.node_count())),
                     kChoices[rng.below(7)]}});
  }

  const CompiledCircuit cc(nl);
  ImplicationEngine inc(cc);
  std::vector<ValueRequirement> committed, pending;
  const auto expect_equal = [&](const std::vector<ValueRequirement>& reqs,
                                bool consistent) {
    ImplicationEngine fresh(cc);
    const ImplicationResult& want = fresh.imply(reqs);
    ASSERT_EQ(consistent, want.consistent);
    if (!consistent) return;
    for (NodeId id = 0; id < nl.node_count(); ++id) {
      for (int q = 0; q < 3; ++q) {
        ASSERT_EQ(inc.value(id, q), want.values[id][q])
            << nl.node(id).name << " plane " << q;
      }
    }
  };
  std::size_t contradictions = 0, commits = 0, undos = 0;
  for (int step = 0; step < 200; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const auto& add = sets[rng.below(sets.size())];
    pending.insert(pending.end(), add.begin(), add.end());
    const bool consistent = inc.extend(add);
    ASSERT_NO_FATAL_FAILURE(expect_equal(pending, consistent));
    if (!consistent) {
      ++contradictions;
      if (rng.coin()) {
        inc.clear();
        committed.clear();
      } else {
        inc.undo();
      }
    } else if (rng.below(3) == 0) {
      inc.undo();
      ++undos;
    } else {
      inc.commit();
      committed = pending;
      ++commits;
    }
    pending = committed;
    ASSERT_NO_FATAL_FAILURE(expect_equal(committed, true));
  }
  EXPECT_GT(contradictions, 10u);
  EXPECT_GT(commits, 10u);
  EXPECT_GT(undos, 10u);
}

TEST(Implication, RejectsSequentialNetlist) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId d = nl.add_gate("d", GateType::Dff, {a});
  nl.mark_output(d);
  nl.finalize();
  EXPECT_THROW(ImplicationEngine eng(nl), std::logic_error);
}

}  // namespace
}  // namespace pdf
