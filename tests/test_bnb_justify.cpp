#include <gtest/gtest.h>

#include "atpg/generator.hpp"
#include "atpg/justify.hpp"
#include "enrich/target_sets.hpp"
#include "gen/registry.hpp"
#include "paths/enumerate.hpp"
#include "sim/triple_sim.hpp"
#include "testutil/circuits.hpp"

namespace pdf {
namespace {

std::vector<TargetFault> screened_faults(const Netlist& nl) {
  const LineDelayModel dm(nl);
  EnumerationConfig cfg;
  cfg.max_faults = 1000000;
  auto faults = faults_for_paths(enumerate_longest_paths(dm, cfg).paths);
  return screen_faults(nl, std::move(faults), nullptr);
}

TEST(BnbJustify, SatisfiableWithWitness) {
  const Netlist nl = testutil::tiny_and_or();
  JustificationEngine bnb(nl, 1);
  const ValueRequirement reqs[] = {{nl.id_of("y"), kRise}};
  const BnbResult r = bnb.branch_and_bound(reqs);
  ASSERT_EQ(r.status, BnbStatus::Satisfiable);
  EXPECT_TRUE(r.test.fully_specified());
  EXPECT_TRUE(simulate(nl, r.test.pi_values)[nl.id_of("y")].covers(kRise));
}

TEST(BnbJustify, ProvesUnsatisfiability) {
  const Netlist nl = testutil::reconvergent();
  JustificationEngine bnb(nl, 1);
  const ValueRequirement reqs[] = {
      {nl.id_of("p"), kSteady1},
      {nl.id_of("z"), kSteady1},
  };
  EXPECT_EQ(bnb.branch_and_bound(reqs).status, BnbStatus::Unsatisfiable);
  // Also without the implication shortcut: the pure search must prove it.
  BnbConfig cfg;
  cfg.use_implication_seed = false;
  EXPECT_EQ(bnb.branch_and_bound(reqs, cfg).status, BnbStatus::Unsatisfiable);
}

TEST(BnbJustify, SelfConflictingSetIsUnsatisfiable) {
  // Two contradictory values on one line: no test exists, and the search
  // must say so before it sets up any lanes.
  const Netlist nl = testutil::tiny_and_or();
  JustificationEngine bnb(nl, 1);
  const ValueRequirement reqs[] = {
      {nl.id_of("y"), kRise},
      {nl.id_of("y"), kSteady0},
  };
  EXPECT_EQ(bnb.branch_and_bound(reqs).status, BnbStatus::Unsatisfiable);
  EXPECT_EQ(bnb.bnb_stats().unsat, 1u);
  // The justifier stays usable for a consistent set afterwards.
  const ValueRequirement ok[] = {{nl.id_of("y"), kRise}};
  EXPECT_EQ(bnb.branch_and_bound(ok).status, BnbStatus::Satisfiable);
}

TEST(BnbJustify, ExactOnSmallCircuits) {
  // Property: on small random circuits the verdict equals brute-force
  // existence over all binary two-pattern tests.
  Rng rng(20202);
  int circuits = 0;
  BnbConfig cfg;
  cfg.max_backtracks = 100000;
  for (int iter = 0; iter < 60 && circuits < 10; ++iter) {
    const Netlist nl = testutil::random_small_netlist(rng);
    if (nl.inputs().size() > 5) continue;
    ++circuits;
    JustificationEngine bnb(nl, 1);

    for (int trial = 0; trial < 8; ++trial) {
      std::vector<ValueRequirement> reqs;
      const std::size_t n_reqs = 1 + rng.below(3);
      for (std::size_t k = 0; k < n_reqs; ++k) {
        static const Triple kChoices[] = {kSteady0, kSteady1, kRise,
                                          kFall,    kFinal0,  kFinal1};
        reqs.push_back({static_cast<NodeId>(rng.below(nl.node_count())),
                        kChoices[rng.below(6)]});
      }

      bool exists = false;
      testutil::for_each_binary_test(
          nl.inputs().size(), [&](const std::vector<Triple>& pis) {
            if (exists) return;
            const auto values = simulate(nl, pis);
            for (const auto& r : reqs) {
              if (!values[r.line].covers(r.value)) return;
            }
            exists = true;
          });

      const BnbResult r = bnb.branch_and_bound(reqs, cfg);
      ASSERT_NE(r.status, BnbStatus::Aborted);
      EXPECT_EQ(r.status == BnbStatus::Satisfiable, exists)
          << "circuit " << iter << " trial " << trial;
      if (r.status == BnbStatus::Satisfiable) {
        const auto values = simulate(nl, r.test.pi_values);
        for (const auto& req : reqs) {
          EXPECT_TRUE(values[req.line].covers(req.value));
        }
      }
    }
  }
  EXPECT_GE(circuits, 5);
}

TEST(BnbJustify, SucceedsWhereverGreedyDoes) {
  const Netlist nl = benchmark_circuit("b03_like");
  const auto faults = screened_faults(nl);
  JustificationEngine greedy(nl, 11);
  JustificationEngine bnb(nl, 1);
  std::size_t greedy_ok = 0, both = 0, bnb_only = 0;
  const std::size_t limit = std::min<std::size_t>(faults.size(), 80);
  for (std::size_t i = 0; i < limit; ++i) {
    const bool g = greedy.justify(faults[i].requirements).has_value();
    const BnbResult b = bnb.branch_and_bound(faults[i].requirements);
    if (g) {
      ++greedy_ok;
      // A complete method can never fail where an incomplete one succeeded.
      EXPECT_EQ(b.status, BnbStatus::Satisfiable);
      ++both;
    } else if (b.status == BnbStatus::Satisfiable) {
      ++bnb_only;
    }
  }
  EXPECT_GT(greedy_ok, 0u);
  EXPECT_EQ(both, greedy_ok);
  // (bnb_only > 0 would demonstrate greedy abort noise; either way is fine.)
  (void)bnb_only;
}

TEST(BnbJustify, AbortOnTinyBudget) {
  const Netlist nl = benchmark_circuit("s1196_like");
  const auto faults = screened_faults(nl);
  JustificationEngine bnb(nl, 1);
  BnbConfig cfg;
  cfg.max_backtracks = 0;
  cfg.use_implication_seed = false;
  int aborted = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(faults.size(), 40); ++i) {
    if (bnb.branch_and_bound(faults[i].requirements, cfg).status ==
        BnbStatus::Aborted) {
      ++aborted;
    }
  }
  // With zero backtracks allowed, any fault needing one aborts; at least the
  // stats must be consistent.
  const BnbStats& s = bnb.bnb_stats();
  EXPECT_EQ(s.sat + s.unsat + s.aborted, s.calls);
  (void)aborted;
}

TEST(BnbJustify, DeterministicAcrossRuns) {
  const Netlist nl = benchmark_circuit("b09_like");
  const auto faults = screened_faults(nl);
  JustificationEngine a(nl, 1), b(nl, 2);
  for (std::size_t i = 0; i < std::min<std::size_t>(faults.size(), 20); ++i) {
    const BnbResult ra = a.branch_and_bound(faults[i].requirements);
    const BnbResult rb = b.branch_and_bound(faults[i].requirements);
    EXPECT_EQ(ra.status, rb.status);
    if (ra.status == BnbStatus::Satisfiable) {
      EXPECT_EQ(ra.test.pi_values, rb.test.pi_values);
    }
  }
}

TEST(BnbJustify, GeneratorIntegration) {
  const Netlist nl = benchmark_circuit("b09_like");
  TargetSetConfig tcfg;
  tcfg.n_p = 600;
  tcfg.n_p0 = 80;
  const TargetSets ts = build_target_sets(nl, tcfg);
  ASSERT_FALSE(ts.p0.empty());
  GeneratorConfig g;
  g.use_branch_and_bound = true;
  const GenerationResult r = generate_tests(nl, ts.p0, ts.p1, g);
  EXPECT_GT(r.detected_p0_count(), ts.p0.size() / 2);
  // Repeat: identical output (the whole point of branch-and-bound here).
  const GenerationResult r2 = generate_tests(nl, ts.p0, ts.p1, g);
  ASSERT_EQ(r.tests.size(), r2.tests.size());
  for (std::size_t i = 0; i < r.tests.size(); ++i) {
    EXPECT_EQ(r.tests[i].pi_values, r2.tests[i].pi_values);
  }
}

}  // namespace
}  // namespace pdf
