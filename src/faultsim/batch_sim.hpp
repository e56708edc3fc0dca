// Batched robust fault simulation through a pluggable sim::SimBackend.
//
// BatchSimulator is the engine every whole-test-set consumer uses —
// detection-matrix construction (coverage reports, post-compaction, the
// cached matrix) and enrichment coverage (detects_any). It compiles the
// netlist once, validates inputs, keeps the engine-level observability (the
// `faultsim.detection_matrix` timer and `faultsim.matrix_tests` histogram),
// and delegates the actual simulation to a SimBackend: the host's default
// (sim::selected_backend(), the widest the CPU supports) unless one is
// pinned explicitly for differential testing.
//
// Every backend produces the bit-identical DetectionMatrix for any thread
// count (see src/sim/backend.hpp and DESIGN.md §11), so results never depend
// on which backend ran — callers may cache them under backend-free keys
// (store::cached_detection_matrix does). Per-test scalar queries stay on
// FaultSimulator, the ATPG inner-loop engine.
#pragma once

#include <span>
#include <vector>

#include "atpg/test_pattern.hpp"
#include "core/compiled_circuit.hpp"
#include "faults/screen.hpp"
#include "faultsim/detection_matrix.hpp"
#include "netlist/netlist.hpp"
#include "sim/backend.hpp"

namespace pdf {

class BatchSimulator {
 public:
  /// The netlist must be finalized, combinational, and outlive the
  /// simulator. `backend == nullptr` means the host's default,
  /// sim::selected_backend().
  explicit BatchSimulator(const Netlist& nl,
                          const sim::SimBackend* backend = nullptr);

  BatchSimulator(const BatchSimulator&) = delete;
  BatchSimulator& operator=(const BatchSimulator&) = delete;

  const sim::SimBackend& backend() const { return *backend_; }

  /// Full detection matrix: row f is a bitset over tests (bit t set when
  /// tests[t] detects faults[f]), packed 64 per word regardless of how many
  /// lanes the backend simulates at once (backend().lanes(): 64 for bitpar,
  /// up to 512 for avx512 — a wide backend fills lanes()/64 matrix words per
  /// simulation). Parallel over word columns on the global runtime pool.
  DetectionMatrix detection_matrix(std::span<const TwoPatternTest> tests,
                                   std::span<const TargetFault> faults) const;

  /// Width-independent precomputation for a batch that will be re-masked
  /// repeatedly: the PI bit-pack and requirement plan built once, reusable
  /// with any backend. Validates test widths; reuses `prep`'s buffers across
  /// calls. Only the `micro_engines backends` gate and the backend tests
  /// call it; pipeline stages use the one-shot overloads.
  void prepare(std::span<const TwoPatternTest> tests,
               std::span<const TargetFault> faults,
               sim::PreparedBatch& prep) const;

  /// detection_matrix() with the setup supplied: `prep` must come from
  /// prepare() on exactly the same (tests, faults). Byte-identical result;
  /// steady-state calls skip the O(tests x inputs) pack and the requirement
  /// flattening entirely.
  DetectionMatrix detection_matrix(std::span<const TwoPatternTest> tests,
                                   std::span<const TargetFault> faults,
                                   const sim::PreparedBatch& prep) const;

  /// Per-fault flags: detected by at least one of `tests`.
  std::vector<bool> detects_any(std::span<const TwoPatternTest> tests,
                                std::span<const TargetFault> faults) const;

 private:
  CompiledCircuit cc_;
  const sim::SimBackend* backend_;
};

}  // namespace pdf
