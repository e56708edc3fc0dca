#include "faultsim/batch_sim.hpp"

#include <gtest/gtest.h>

#include "enrich/enrichment.hpp"
#include "gen/registry.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/backend.hpp"
#include "sim/triple_sim.hpp"
#include "testutil/circuits.hpp"

namespace pdf {
namespace {

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

TEST(BatchSim, MatchesScalarSimulatorOnRandomTests) {
  for (const char* name : {"s27", "b03_like", "rca16"}) {
    const Netlist nl = benchmark_circuit(name);
    TargetSetConfig cfg;
    cfg.n_p = 600;
    cfg.n_p0 = 100;
    const TargetSets ts = build_target_sets(nl, cfg);
    if (ts.p0.empty()) continue;

    Rng rng(777);
    // Deliberately not a multiple of 64 to cover the partial last word.
    const auto tests = random_tests(nl, 130, rng);

    BatchSimulator parallel(nl);
    EXPECT_EQ(parallel.detects_any(tests, ts.p0),
              testutil::detected_by_any(nl, tests, ts.p0))
        << name;
    EXPECT_EQ(parallel.detects_any(tests, ts.p1),
              testutil::detected_by_any(nl, tests, ts.p1))
        << name;
  }
}

TEST(BatchSim, DetectionMatrixMatchesPerTestScalar) {
  const Netlist nl = benchmark_circuit("s27");
  TargetSetConfig cfg;
  cfg.n_p = 100;
  cfg.n_p0 = 10;
  const TargetSets ts = build_target_sets(nl, cfg);
  ASSERT_FALSE(ts.p0.empty());

  Rng rng(9);
  const auto tests = random_tests(nl, 70, rng);
  BatchSimulator parallel(nl);
  const DetectionMatrix matrix = parallel.detection_matrix(tests, ts.p0);
  ASSERT_EQ(matrix.fault_count(), ts.p0.size());
  ASSERT_EQ(matrix.test_count(), tests.size());
  ASSERT_EQ(matrix.words_per_row(), 2u);  // 70 tests -> 2 words
  for (std::size_t t = 0; t < tests.size(); ++t) {
    const std::vector<Triple> values = simulate(nl, tests[t].pi_values);
    for (std::size_t f = 0; f < ts.p0.size(); ++f) {
      EXPECT_EQ(matrix.bit(f, t), satisfied(values, ts.p0[f].requirements))
          << "fault " << f << " test " << t;
    }
  }
  for (std::size_t f = 0; f < ts.p0.size(); ++f) {
    // Lanes beyond the test count stay clear.
    for (std::size_t lane = 70 - 64; lane < 64; ++lane) {
      EXPECT_EQ((matrix.word(f, 1) >> lane) & 1, 0u);
    }
  }
}

TEST(BatchSim, WordLogicMatchesTripleSimExactly) {
  // Property: pack 64 random tests and compare every line's computed triple
  // against the scalar triple simulator, via the detection of per-line
  // "probe requirements".
  Rng rng(31);
  for (int iter = 0; iter < 10; ++iter) {
    const Netlist nl = testutil::random_small_netlist(rng);
    const auto tests = random_tests(nl, 64, rng);
    BatchSimulator parallel(nl);

    // One synthetic "fault" per node and interesting triple.
    std::vector<TargetFault> probes;
    for (NodeId id = 0; id < nl.node_count(); ++id) {
      for (const Triple& req : {kSteady0, kSteady1, kRise, kFall}) {
        TargetFault tf;
        tf.requirements = {{id, req}};
        probes.push_back(std::move(tf));
      }
    }
    EXPECT_EQ(parallel.detects_any(tests, probes),
              testutil::detected_by_any(nl, tests, probes))
        << "iter " << iter;
  }
}

TEST(BatchSim, EmptyInputs) {
  const Netlist nl = benchmark_circuit("s27");
  BatchSimulator parallel(nl);
  EXPECT_TRUE(parallel.detects_any({}, {}).empty());
  TargetSetConfig cfg;
  cfg.n_p = 40;
  cfg.n_p0 = 4;
  const TargetSets ts = build_target_sets(nl, cfg);
  const auto none = parallel.detects_any({}, ts.p0);
  for (bool b : none) EXPECT_FALSE(b);
}

TEST(BatchSim, ZeroAllocationAfterWarmupForEveryBackend) {
  // The DESIGN.md §11 memory contract: after one warm-up call sized like the
  // workload, repeated batched queries reuse the scratch arenas — the
  // sim.<backend>.scratch_grows counter must not move, whichever workers
  // the pool schedules the columns on. Covers every registered backend,
  // including the wide-vector arenas in avx2/avx512, on a multi-worker pool
  // with fewer avx512 columns than workers (the shape where arenas that
  // warm lazily per worker would grow after warm-up).
  const struct PoolGuard {
    std::size_t before = runtime::global_threads();
    PoolGuard() { runtime::set_global_threads(4); }
    ~PoolGuard() { runtime::set_global_threads(before); }
  } pool;
  const Netlist nl = benchmark_circuit("b03_like");
  TargetSetConfig cfg;
  cfg.n_p = 200;
  cfg.n_p0 = 40;
  const TargetSets ts = build_target_sets(nl, cfg);
  ASSERT_FALSE(ts.p0.empty());
  Rng rng(5);
  // Multiple words at every lane width, with a partial tail.
  const auto tests = random_tests(nl, 700, rng);
  for (sim::SimBackend* backend : sim::all_backends()) {
    const BatchSimulator fsim(nl, backend);
    (void)fsim.detection_matrix(tests, ts.p0);  // warm the arenas
    auto& grows = runtime::Metrics::global().counter(
        std::string("sim.") + backend->name() + ".scratch_grows");
    const std::uint64_t before = grows.read();
    for (int i = 0; i < 3; ++i) {
      (void)fsim.detection_matrix(tests, ts.p0);
    }
    EXPECT_EQ(grows.read(), before)
        << backend->name() << " grew scratch after warm-up";
  }
}

TEST(BatchSim, BadTestWidthThrows) {
  const Netlist nl = benchmark_circuit("s27");
  BatchSimulator parallel(nl);
  TwoPatternTest t;
  t.pi_values.assign(2, kSteady0);
  TargetFault tf;
  tf.requirements = {{0, kSteady0}};
  const TwoPatternTest tests[] = {t};
  const TargetFault faults[] = {tf};
  EXPECT_THROW(parallel.detects_any(tests, faults), std::invalid_argument);
}

}  // namespace
}  // namespace pdf
