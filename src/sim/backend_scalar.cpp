// ScalarBackend: the compiled triple simulator run once per test.
//
// This is the reference implementation of the SimBackend contract — one
// `simulate(cc, pis, scratch)` pass per test, then the same `satisfied`
// requirement check the generator drops faults with. It deliberately
// parallelizes over the same 64-test word columns as the bit-parallel backend
// (not over individual tests), so the two backends share one parallel
// decomposition: each task owns a disjoint set of matrix word columns, writes
// race nothing, and the result is bit-identical at any thread count.
#include <algorithm>
#include <stdexcept>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/metrics.hpp"
#include "runtime/per_worker.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/backend.hpp"
#include "sim/triple_sim.hpp"

namespace pdf::sim {
namespace {

runtime::Metrics::Counter& word_counter() {
  static auto& c = runtime::Metrics::global().counter("sim.scalar.words");
  return c;
}
runtime::Metrics::Counter& grow_counter() {
  static auto& c =
      runtime::Metrics::global().counter("sim.scalar.scratch_grows");
  return c;
}
runtime::Metrics::Timer& matrix_timer() {
  static auto& t = runtime::Metrics::global().timer("sim.scalar.matrix");
  return t;
}

class ScalarBackend final : public SimBackend {
 public:
  const char* name() const override { return "scalar"; }

  DetectionMatrix detection_matrix(
      const CompiledCircuit& cc, std::span<const TwoPatternTest> tests,
      std::span<const TargetFault> faults) const override {
    PDF_TRACE_SPAN("sim.scalar.matrix");
    const auto scope = matrix_timer().measure();
    DetectionMatrix matrix(faults.size(), tests.size());
    const std::size_t words = matrix.words_per_row();
    const std::span<const NodeId> inputs = cc.inputs();

    // Size one arena per task that can run concurrently, on the calling
    // thread: the parallel phase never allocates.
    runtime::TaskArenas<Arena>& arenas = scratch_.local();
    bool grew = false;
    for (Arena& a : arenas.prepare(runtime::global_pool().concurrency(words))) {
      grew |= a.sim.triples.capacity() < cc.node_count() ||
              a.pis.capacity() < inputs.size();
      a.sim.triples.reserve(cc.node_count());
      a.pis.resize(inputs.size());
    }
    if (grew) grow_counter().add();

    runtime::global_pool().parallel_for(words, 1, [&](std::size_t w0,
                                                      std::size_t w1) {
      const auto lease = arenas.lease();
      Arena& s = *lease;
      for (std::size_t w = w0; w < w1; ++w) {
        const std::size_t base = w * 64;
        const std::size_t lanes =
            std::min<std::size_t>(64, tests.size() - base);
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          const TwoPatternTest& t = tests[base + lane];
          if (t.pi_values.size() != inputs.size()) {
            throw std::invalid_argument("ScalarBackend: bad test width");
          }
          for (std::size_t i = 0; i < inputs.size(); ++i) {
            s.pis[i] = pi_triple(t.pi_values[i].a1, t.pi_values[i].a3);
          }
          const std::span<const Triple> values = simulate(cc, s.pis, s.sim);
          const std::uint64_t bit = std::uint64_t{1} << lane;
          for (std::size_t fi = 0; fi < faults.size(); ++fi) {
            if (satisfied(values, faults[fi].requirements)) {
              matrix.word(fi, w) |= bit;
            }
          }
        }
      }
      word_counter().add(w1 - w0);
    });
    return matrix;
  }

 private:
  struct Arena {
    SimScratch sim;
    std::vector<Triple> pis;  // normalized PI triples of the current test
  };
  // Per calling thread: the arenas its calls lend to their column tasks.
  mutable runtime::PerWorker<runtime::TaskArenas<Arena>> scratch_;
};

}  // namespace

SimBackend& scalar_backend() {
  static ScalarBackend backend;
  return backend;
}

}  // namespace pdf::sim
