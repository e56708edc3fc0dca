// Thread-count-independence suite: every parallel engine must produce
// bit-identical results whether the runtime pool has 1 or 8 threads. Also the
// designated ThreadSanitizer target — the CI TSan job runs these tests to
// hunt data races in the shared-engine paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "enrich/enrichment.hpp"
#include "faultsim/defect_mc.hpp"
#include "faultsim/batch_sim.hpp"
#include "faultsim/fault_sim.hpp"
#include "gen/registry.hpp"
#include "paths/distance.hpp"
#include "paths/line_cover.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/triple_sim.hpp"
#include "testutil/circuits.hpp"

namespace pdf {
namespace {

// Restores a single-threaded global pool no matter how a test exits, so
// later suites are unaffected.
struct PoolGuard {
  ~PoolGuard() { runtime::set_global_threads(1); }
};

std::vector<TwoPatternTest> random_tests(const Netlist& nl, std::size_t count,
                                         Rng& rng) {
  std::vector<TwoPatternTest> tests(count);
  for (auto& t : tests) {
    t.pi_values.resize(nl.inputs().size());
    for (auto& v : t.pi_values) {
      v = pi_triple(rng.coin() ? V3::One : V3::Zero,
                    rng.coin() ? V3::One : V3::Zero);
    }
  }
  return tests;
}

TEST(Determinism, DetectionMatrixIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const Netlist nl = benchmark_circuit("s1196_like");
  TargetSetConfig cfg;
  cfg.n_p = 1000;
  cfg.n_p0 = 120;
  const TargetSets ts = build_target_sets(nl, cfg);
  ASSERT_FALSE(ts.p0.empty());

  Rng rng(555);
  const auto tests = random_tests(nl, 200, rng);

  // Every registered backend: 1-thread and 8-thread matrices bit-identical,
  // and identical to each other across backends.
  DetectionMatrix reference;
  bool have_reference = false;
  for (sim::SimBackend* backend : sim::all_backends()) {
    const BatchSimulator fsim(nl, backend);
    runtime::set_global_threads(1);
    const DetectionMatrix m1 = fsim.detection_matrix(tests, ts.p0);
    runtime::set_global_threads(8);
    const DetectionMatrix m8 = fsim.detection_matrix(tests, ts.p0);
    EXPECT_EQ(m1, m8) << backend->name();
    if (!have_reference) {
      reference = m1;
      have_reference = true;
    } else {
      EXPECT_EQ(m1, reference) << backend->name() << " vs "
                               << sim::all_backends().front()->name();
    }
  }

  // And all agree with the scalar per-test simulator.
  FaultSimulator scalar(nl);
  for (std::size_t f = 0; f < ts.p0.size(); f += 17) {
    for (std::size_t t = 0; t < tests.size(); t += 13) {
      EXPECT_EQ(reference.bit(f, t), scalar.detects(tests[t], ts.p0[f]));
    }
  }
}

TEST(Determinism, EnrichedSweepIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const Netlist nl = benchmark_circuit("b03_like");
  TargetSetConfig tcfg;
  tcfg.n_p = 300;
  tcfg.n_p0 = 40;
  const EnrichmentWorkbench wb(nl, tcfg);
  ASSERT_FALSE(wb.targets().p0.empty());

  const std::uint64_t seeds[] = {1, 2, 3};
  auto run_at = [&](std::size_t threads) {
    runtime::set_global_threads(threads);
    return wb.run_enriched_sweep(seeds);
  };
  const auto at1 = run_at(1);
  const auto at8 = run_at(8);
  ASSERT_EQ(at1.size(), at8.size());
  for (std::size_t i = 0; i < at1.size(); ++i) {
    EXPECT_EQ(at1[i].seed, at8[i].seed);
    ASSERT_EQ(at1[i].result.tests.size(), at8[i].result.tests.size());
    for (std::size_t t = 0; t < at1[i].result.tests.size(); ++t) {
      EXPECT_EQ(at1[i].result.tests[t].pi_values,
                at8[i].result.tests[t].pi_values)
          << "seed " << at1[i].seed << " test " << t;
    }
    EXPECT_EQ(at1[i].coverage.p0_detected, at8[i].coverage.p0_detected);
    EXPECT_EQ(at1[i].coverage.p1_detected, at8[i].coverage.p1_detected);
  }
  // Each sweep entry matches a plain sequential run with that seed.
  runtime::set_global_threads(1);
  GeneratorConfig g;
  g.seed = 2;
  const GenerationResult direct = wb.run_enriched(g);
  ASSERT_EQ(direct.tests.size(), at8[1].result.tests.size());
  for (std::size_t t = 0; t < direct.tests.size(); ++t) {
    EXPECT_EQ(direct.tests[t].pi_values, at8[1].result.tests[t].pi_values);
  }
}

TEST(Determinism, MonteCarloIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const Netlist nl = benchmark_circuit("rca16");
  DefectMcConfig cfg;
  cfg.nominal_gate_delay = 1;
  cfg.clock_period = 40;
  const DefectSimulator sim(nl, cfg);

  Rng trng(99);
  const auto tests = random_tests(nl, 12, trng);
  std::vector<NodeId> pool;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (nl.node(id).type != GateType::Input) pool.push_back(id);
  }
  const Rng mc_rng(2024);
  auto run_at = [&](std::size_t threads) {
    runtime::set_global_threads(threads);
    return sim.monte_carlo(tests, pool, 64, 1, 10, mc_rng);
  };
  const auto at1 = run_at(1);
  const auto at8 = run_at(8);
  EXPECT_EQ(at1.trials, at8.trials);
  EXPECT_EQ(at1.caught, at8.caught);
  // The caller's generator was never advanced: a copy still agrees.
  Rng copy(2024);
  EXPECT_EQ(Rng(2024).split(5).next(), mc_rng.split(5).next());
  (void)copy;
}

TEST(Determinism, PathSelectionIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const Netlist nl = benchmark_circuit("s1196_like");
  const LineDelayModel dm(nl);
  auto run_at = [&](std::size_t threads) {
    runtime::set_global_threads(threads);
    return std::make_pair(distances_to_outputs(dm),
                          select_line_cover_paths(dm));
  };
  const auto at1 = run_at(1);
  const auto at8 = run_at(8);
  EXPECT_EQ(at1.first, at8.first);
  ASSERT_EQ(at1.second.size(), at8.second.size());
  for (std::size_t i = 0; i < at1.second.size(); ++i) {
    EXPECT_EQ(at1.second[i].path, at8.second[i].path);
    EXPECT_EQ(at1.second[i].length, at8.second[i].length);
  }
}

TEST(Determinism, SharedFaultSimulatorAcrossPoolWorkers) {
  // One FaultSimulator instance hammered from every pool worker at once: the
  // per-worker memo state must keep results identical to a sequential pass.
  // Run under TSan, this is the race detector for satellite state.
  PoolGuard guard;
  const Netlist nl = benchmark_circuit("b03_like");
  TargetSetConfig cfg;
  cfg.n_p = 300;
  cfg.n_p0 = 40;
  const TargetSets ts = build_target_sets(nl, cfg);
  ASSERT_FALSE(ts.p0.empty());

  Rng rng(321);
  const auto tests = random_tests(nl, 96, rng);
  const FaultSimulator fsim(nl);

  runtime::set_global_threads(1);
  std::vector<std::uint8_t> seq(tests.size() * ts.p0.size());
  for (std::size_t t = 0; t < tests.size(); ++t) {
    for (std::size_t f = 0; f < ts.p0.size(); ++f) {
      seq[t * ts.p0.size() + f] = fsim.detects(tests[t], ts.p0[f]) ? 1 : 0;
    }
  }

  runtime::set_global_threads(8);
  std::vector<std::uint8_t> par(seq.size());
  runtime::global_pool().parallel_for(
      tests.size(), 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t t = b; t < e; ++t) {
          for (std::size_t f = 0; f < ts.p0.size(); ++f) {
            par[t * ts.p0.size() + f] =
                fsim.detects(tests[t], ts.p0[f]) ? 1 : 0;
          }
        }
      });
  EXPECT_EQ(par, seq);
}

}  // namespace
}  // namespace pdf
