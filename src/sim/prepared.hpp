// Reusable per-batch precomputation for the packed simulation backends.
//
// A detection-matrix query has two width-independent setup stages that cost
// O(tests x inputs) and O(total requirements) scalar work per call:
//
//   * PackedTests — the batch's PI triples transposed and bit-packed at
//     64-bit granularity (6 bit-planes per input: known/value for each of
//     the a1/a2/a3 triple planes, 64 tests per word). Every packed backend
//     width reads the same subwords — a Vec-wide word w loads word64
//     columns [w*K, w*K+K) — which is what makes the backends bit-identical
//     by construction. The pack is a blocked transpose: per 64-test word
//     and block of 64 inputs it fills a 4 KB on-stack tile of predicate
//     bytes and packs each tile row straight into the plane rows, so there
//     is no tests x inputs transpose scratch and no zero pass.
//   * ReqPlan — every fault's requirements flattened to *atoms*: single
//     (line, plane, polarity) conditions encoded line*6 + q*2 + (value==1),
//     deduplicated across the fault set. Path faults share most requirement
//     lines, so each simulated word computes every unique atom's mask once
//     and a fault's detection word reduces to sequential ANDs over a dense
//     table.
//
// A caller that masks the same tests and faults repeatedly can prepare once
// and pass the PreparedBatch to detection_matrix_prepared(), which removes
// the setup from every repeated call. Only the `micro_engines backends` gate
// (it times this path) and tests/test_backend.cpp do so; pipeline stages,
// enrichment coverage's detects_any included, take the one-shot path.
// Everything here is plain std::uint64_t data — no SIMD types — so it has
// ordinary external linkage and is shared by all backend TUs regardless of
// their ISA flags.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/test_pattern.hpp"
#include "core/compiled_circuit.hpp"
#include "faults/screen.hpp"

namespace pdf::sim {

/// The whole test batch's PI planes, packed 64 tests per std::uint64_t.
struct PackedTests {
  std::size_t words64 = 0;
  std::size_t inputs = 0;
  /// Packed planes: rows indexed by (input, plane q, known=0/value=1).
  std::vector<std::uint64_t> bits;

  const std::uint64_t* row(std::size_t i, int q, int which) const {
    return bits.data() + ((i * 3 + q) * 2 + which) * words64;
  }
  std::uint64_t* row(std::size_t i, int q, int which) {
    return bits.data() + ((i * 3 + q) * 2 + which) * words64;
  }
};

/// Transposes and bit-packs the batch, writing every word of `bits`;
/// validates every test's width against cc.inputs() first (throws
/// std::invalid_argument naming `backend_name`). Reuses the struct's buffer —
/// steady-state calls allocate nothing.
void pack_tests(const CompiledCircuit& cc,
                std::span<const TwoPatternTest> tests,
                const char* backend_name, PackedTests& pt);

/// The fault set's requirements as deduplicated atoms.
struct ReqPlan {
  std::vector<std::uint32_t> atoms;    ///< unique atom codes
  std::vector<std::uint32_t> offsets;  ///< fault f's ids are [f, f+1)
  std::vector<std::uint32_t> ids;      ///< atom indices, fault-major
  std::vector<std::int32_t> lut;       ///< dense node_count*6 dedup scratch
};

/// Builds the plan; reuses the struct's buffers across calls.
void build_req_plan(const CompiledCircuit& cc,
                    std::span<const TargetFault> faults, ReqPlan& plan);

/// Sum of vector capacities — a cheap "did any buffer reallocate" probe
/// (capacities never shrink under clear()/assign()).
inline std::size_t plan_capacity(const ReqPlan& plan) {
  return plan.atoms.capacity() + plan.offsets.capacity() +
         plan.ids.capacity() + plan.lut.capacity();
}

/// Both setup stages bundled for SimBackend::detection_matrix_prepared().
/// Valid for exactly the (circuit, tests, faults) it was built from —
/// callers own the pairing (BatchSimulator::prepare does it for them).
struct PreparedBatch {
  PackedTests tests_pack;
  ReqPlan plan;
};

/// Convenience: packs tests and plans faults in one shot.
void prepare_batch(const CompiledCircuit& cc,
                   std::span<const TwoPatternTest> tests,
                   std::span<const TargetFault> faults, PreparedBatch& prep);

}  // namespace pdf::sim
