// Tests for the non-robust sensitization extension.
#include <gtest/gtest.h>

#include "enrich/enrichment.hpp"
#include "faultsim/batch_sim.hpp"
#include "gen/registry.hpp"
#include "paths/enumerate.hpp"
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

TEST(NonRobust, RelaxesThePaperExample) {
  // Robust A(p) for the s27 example fault demands steady 0 on G7; the
  // non-robust criterion only needs final 0 everywhere off-path.
  const Netlist nl = benchmark_circuit("s27");
  PathDelayFault f{named_path(nl, {"G1", "G12", "G13"}), true, 4};
  const FaultRequirements r =
      build_requirements(nl, f, Sensitization::NonRobust);
  EXPECT_FALSE(r.conflicting);
  EXPECT_EQ(req_on(r, nl.id_of("G1")), kRise);     // launch still a transition
  EXPECT_EQ(req_on(r, nl.id_of("G7")), kFinal0);   // relaxed from 000
  EXPECT_EQ(req_on(r, nl.id_of("G2")), kFinal0);
  EXPECT_EQ(req_on(r, nl.id_of("G12")), kFinal0);  // on-path: final only
  EXPECT_EQ(req_on(r, nl.id_of("G13")), kFinal1);
}

TEST(NonRobust, RobustRequirementsImplyNonRobust) {
  // Property: every triple of the non-robust A(p) is covered by the robust
  // A(p) requirement on the same line, so any robust test also satisfies
  // the non-robust condition.
  const Netlist nl = benchmark_circuit("b03_like");
  const LineDelayModel dm(nl);
  EnumerationConfig cfg;
  cfg.max_faults = 400;
  const auto paths = enumerate_longest_paths(dm, cfg).paths;
  const auto faults = faults_for_paths(paths);
  int compared = 0;
  for (const auto& f : faults) {
    const FaultRequirements robust = build_requirements(nl, f);
    if (robust.conflicting) continue;
    const FaultRequirements nonrobust =
        build_requirements(nl, f, Sensitization::NonRobust);
    ASSERT_FALSE(nonrobust.conflicting);
    ++compared;
    for (const auto& nr : nonrobust.values) {
      bool covered = false;
      for (const auto& rr : robust.values) {
        if (rr.line == nr.line && rr.value.covers(nr.value)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << nl.node(nr.line).name;
    }
  }
  EXPECT_GT(compared, 20);
}

TEST(NonRobust, MoreFaultsSurviveScreening) {
  // Relaxed constraints can only keep more faults testable.
  const Netlist nl = benchmark_circuit("s641_like");
  TargetSetConfig robust, nonrobust;
  robust.n_p = nonrobust.n_p = 1500;
  robust.n_p0 = nonrobust.n_p0 = 150;
  nonrobust.sensitization = Sensitization::NonRobust;
  const TargetSets tr = build_target_sets(nl, robust);
  const TargetSets tn = build_target_sets(nl, nonrobust);
  EXPECT_GE(tn.p_total(), tr.p_total());
  EXPECT_GT(tn.p_total(), 0u);
}

TEST(NonRobust, GenerationWorksEndToEnd) {
  const Netlist nl = benchmark_circuit("b09_like");
  TargetSetConfig cfg;
  cfg.n_p = 800;
  cfg.n_p0 = 100;
  cfg.sensitization = Sensitization::NonRobust;
  const EnrichmentWorkbench wb(nl, cfg);
  if (wb.targets().p0.empty()) GTEST_SKIP();
  const GenerationResult r = wb.run_enriched({});
  EXPECT_GT(r.detected_p0_count(), 0u);
  // Detection flags still agree with simulation (same criterion, relaxed A).
  const BatchSimulator fsim(nl);
  EXPECT_EQ(fsim.detects_any(r.tests, wb.targets().p0),
            std::vector<bool>(r.detected_p0.begin(), r.detected_p0.end()));
}

}  // namespace
}  // namespace pdf
