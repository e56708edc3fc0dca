// Pluggable simulation backends for batched robust fault simulation.
//
// A SimBackend turns a CompiledCircuit plus a batch of two-pattern tests and
// target faults into a DetectionMatrix. The contract (DESIGN.md §11) is
// strict so callers can treat the backend as an interchangeable detail:
//
//   * Value encoding: the triple algebra's three {0,1,x} planes. How a
//     backend represents them internally (dense Triple arrays, 2-bit planes
//     packed 64 tests per word, SIMD lanes, ...) is its own business.
//   * Batching: the backend owns the loop over tests and faults. Callers
//     hand over whole batches; per-test APIs stay on FaultSimulator, which
//     remains the scalar single-query engine for ATPG inner loops.
//   * Determinism: every backend produces the bit-identical DetectionMatrix
//     for the same (circuit, tests, faults) — independent of backend choice
//     and of the runtime thread count. pdf_check's `backends_agree` check
//     and tests/test_backend.cpp enforce this continuously.
//   * Memory: each calling thread's slot owns one scratch arena per column
//     task its calls can run concurrently (runtime::TaskArenas, sized on the
//     calling thread before the parallel phase), so after one warm-up call
//     of a given batch shape, further calls of that shape perform no heap
//     allocation whatever the schedule (observable via the
//     `sim.<name>.scratch_grows` counters; asserted by the
//     `micro_engines backends` mode and the BatchSim.ZeroAllocation test).
//
// Backends are stateless singletons apart from their scratch arenas (which
// follow the runtime::PerWorker sharing contract: one external thread plus
// the global pool's workers). `selected_backend()` is the process-wide
// default used when a caller doesn't pin one explicitly; this module alone
// picks it, from the host's ISA, and nothing else can change it.
//
// Registration is capability-gated: the wide SIMD backends (avx2: 256
// tests/word, avx512: 512 tests/word) are always compiled in — their TUs
// carry the matching -m flags — but only appear in all_backends() when the
// host CPU supports the ISA (sim/cpu_features.hpp; cap with PDF_SIMD). The
// default is the widest registered packed backend, so a rebuilt binary
// automatically uses the fastest safe engine on each host; PDF_SIMD is the
// one setting, and it works by modelling a smaller host.
#pragma once

#include <span>

#include "atpg/test_pattern.hpp"
#include "core/compiled_circuit.hpp"
#include "faults/screen.hpp"
#include "faultsim/detection_matrix.hpp"
#include "sim/prepared.hpp"

namespace pdf::sim {

class SimBackend {
 public:
  virtual ~SimBackend() = default;

  /// Stable identifier ("scalar", "bitpar", ...): the metric-name component
  /// and the manifest entry.
  virtual const char* name() const = 0;

  /// Tests simulated per packed word (1 scalar, 64 bitpar, 256 avx2, 512
  /// avx512). Purely informational — result bytes never depend on
  /// it — but benches and reports use it for per-width labeling.
  virtual std::size_t lanes() const { return 1; }

  /// Full fault-by-test detection matrix: bit (f, t) is set iff tests[t]
  /// robustly detects faults[f]. Parallel over lanes()-test word columns on
  /// the global runtime pool; bit-identical across backends and thread
  /// counts. Test widths must match cc.inputs() (validated by
  /// BatchSimulator).
  virtual DetectionMatrix detection_matrix(
      const CompiledCircuit& cc, std::span<const TwoPatternTest> tests,
      std::span<const TargetFault> faults) const = 0;

  /// Same matrix, but with the width-independent setup (PI bit-pack +
  /// requirement plan) supplied by the caller instead of rebuilt per call.
  /// `prep` must have been built by prepare_batch() from exactly this
  /// (cc, tests, faults); results are byte-identical to detection_matrix().
  /// A caller that re-masks one batch repeatedly prepares once and amortizes
  /// the setup away; the `micro_engines backends` gate times this path, and
  /// no pipeline stage calls it. The default ignores `prep` — backends
  /// without packed setup (scalar) gain nothing.
  virtual DetectionMatrix detection_matrix_prepared(
      const CompiledCircuit& cc, std::span<const TwoPatternTest> tests,
      std::span<const TargetFault> faults, const PreparedBatch& prep) const {
    (void)prep;
    return detection_matrix(cc, tests, faults);
  }
};

/// The scalar reference backend: one compiled triple simulation per test.
SimBackend& scalar_backend();

/// The bit-parallel backend: 64 tests per word, 2-bit-plane {0,1,x} encoding.
SimBackend& bitpar_backend();

/// The 256-tests/word AVX2 instantiation of the wide kernel. The accessor's
/// TU is compiled with -mavx2: call only when simd_level() >= kAvx2 (the
/// registry does; everyone else should go through all_backends()).
SimBackend& avx2_backend();

/// The 512-tests/word AVX-512 instantiation. TU compiled with -mavx512f:
/// call only when simd_level() >= kAvx512.
SimBackend& avx512_backend();

/// Every registered backend, in registration order (scalar, bitpar, then
/// whichever wide backends the host CPU supports, ascending width).
std::span<SimBackend* const> all_backends();

/// The process-wide default backend: the widest registered packed backend
/// (avx512 > avx2 > bitpar; never scalar), i.e. all_backends().back().
/// Engines that don't take an explicit backend use this one. Identical
/// result bytes whichever it is — only speed varies.
SimBackend& selected_backend();

}  // namespace pdf::sim
