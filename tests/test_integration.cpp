// End-to-end integration tests across the full pipeline, plus parameterized
// sweeps over the benchmark suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "enrich/enrichment.hpp"
#include "faultsim/batch_sim.hpp"
#include "gen/registry.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/combinational.hpp"
#include "netlist/transform.hpp"

namespace pdf {
namespace {

// ---------------------------------------------------------------------------
// Parameterized end-to-end sweep: for every circuit, the pipeline
// (enumerate -> screen -> split -> enrich -> simulate) upholds the paper's
// structural invariants.
class PipelineSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(PipelineSweep, InvariantsHold) {
  const Netlist nl = benchmark_circuit(GetParam());
  TargetSetConfig tcfg;
  tcfg.n_p = 500;
  tcfg.n_p0 = 80;
  const EnrichmentWorkbench wb(nl, tcfg);
  const TargetSets& ts = wb.targets();
  if (ts.p0.empty()) GTEST_SKIP() << "no detectable faults survived screening";

  GeneratorConfig gcfg;
  gcfg.seed = 42;
  const GenerationResult r = wb.run_enriched(gcfg);

  // (1) Every generated test is fully specified.
  for (const auto& t : r.tests) EXPECT_TRUE(t.fully_specified());

  // (2) Detection flags are reproducible by plain fault simulation.
  const BatchSimulator batch(nl);
  EXPECT_EQ(batch.detects_any(r.tests, ts.p0),
            std::vector<bool>(r.detected_p0.begin(), r.detected_p0.end()));
  EXPECT_EQ(batch.detects_any(r.tests, ts.p1),
            std::vector<bool>(r.detected_p1.begin(), r.detected_p1.end()));

  // (3) Test count is bounded by successful P0 primaries (P1 adds none).
  EXPECT_EQ(r.tests.size(),
            r.stats.primary_attempts - r.stats.primary_failures);
  EXPECT_LE(r.tests.size(), ts.p0.size());

  // (4) Every test detects at least its primary target.
  const DetectionMatrix m = batch.detection_matrix(r.tests, ts.p0);
  for (std::size_t t = 0; t < r.tests.size(); ++t) {
    EXPECT_TRUE(m.bit(r.primary_targets[t], t)) << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, PipelineSweep,
    ::testing::Values("s27", "s641_like", "s953_like", "s1196_like",
                      "s1423_like", "s1488_like", "b03_like", "b04_like",
                      "b09_like", "rca16", "barrel16x4", "skipchain48"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ---------------------------------------------------------------------------
// Parameterized sweep over target-set budgets: monotonicity of the split.
struct BudgetCase {
  std::size_t n_p;
  std::size_t n_p0;
};

class BudgetSweep : public ::testing::TestWithParam<BudgetCase> {};

TEST_P(BudgetSweep, SplitRespectsBudgets) {
  const BudgetCase c = GetParam();
  const Netlist nl = benchmark_circuit("s1423_like");
  TargetSetConfig cfg;
  cfg.n_p = c.n_p;
  cfg.n_p0 = c.n_p0;
  const TargetSets ts = build_target_sets(nl, cfg);
  EXPECT_GE(ts.p0.size(), std::min(c.n_p0, ts.p_total()));
  EXPECT_LE(ts.p_total(), c.n_p + 64);
  for (const auto& tf : ts.p0) EXPECT_GE(tf.fault.length, ts.cutoff_length);
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetSweep,
                         ::testing::Values(BudgetCase{200, 40},
                                           BudgetCase{400, 80},
                                           BudgetCase{800, 160},
                                           BudgetCase{1600, 320}),
                         [](const ::testing::TestParamInfo<BudgetCase>& info) {
                           return "np" + std::to_string(info.param.n_p);
                         });

// ---------------------------------------------------------------------------
// The complete file-level workflow a downstream user would run: write a
// .bench, parse it, extract, decompose, generate, export tests.
TEST(Integration, BenchFileWorkflow) {
  const std::string path = ::testing::TempDir() + "/workflow.bench";
  {
    std::ofstream out(path);
    out << "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z)\n"
        << "s = DFF(z)\n"
        << "x = XOR(a, b)\n"
        << "y = AND(x, s)\n"
        << "z = OR(y, c)\n";
  }
  const Netlist seq = parse_bench_file(path);
  const Netlist nl = decompose_xor(extract_combinational(seq));
  ASSERT_TRUE(is_atpg_ready(nl));

  TargetSetConfig tcfg;
  tcfg.n_p = 100;
  tcfg.n_p0 = 4;
  const EnrichmentWorkbench wb(nl, tcfg);
  const GenerationResult r = wb.run_enriched({});
  EXPECT_FALSE(r.tests.empty());
  EXPECT_GT(r.detected_p0_count(), 0u);
}

// Scaling N_P0 upward can only grow P0 (same P).
TEST(Integration, P0GrowsWithThreshold) {
  const Netlist nl = benchmark_circuit("s953_like");
  std::size_t prev = 0;
  for (std::size_t n_p0 : {40u, 80u, 160u, 320u}) {
    TargetSetConfig cfg;
    cfg.n_p = 1000;
    cfg.n_p0 = n_p0;
    const TargetSets ts = build_target_sets(nl, cfg);
    EXPECT_GE(ts.p0.size(), prev);
    prev = ts.p0.size();
  }
}

}  // namespace
}  // namespace pdf
