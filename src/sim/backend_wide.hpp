// Width-generic bit-parallel simulation kernel shared by the bitpar, avx2
// and avx512 backends.
//
// The 64-tests/word kernel from PR 6 generalized over the word type: `Vec`
// is either plain std::uint64_t (64 lanes) or a GCC vector-extension type —
// uint64_t __attribute__((vector_size(32))) for 256 lanes (AVX2) or
// vector_size(64) for 512 lanes (AVX-512). All plane math is the same
// bitwise AND/NAND/OR/NOR/XOR/XNOR evaluation and per-fault requirement
// masking; the vector types just carry 4 or 8 independent 64-test subwords
// per register. Lane L of a wide word is bit (L % 64) of subword (L / 64),
// so subword k of wide word w is exactly DetectionMatrix word w*K+k — the
// wide kernels produce the same bytes as bitpar by construction, and the
// parameterized test_backend suite + all-pairs `backends_agree` enforce it.
//
// The width-independent setup — transposed PI bit-pack and the
// requirement-atom plan — lives in sim/prepared.{hpp,cpp} (plain uint64
// data, ordinary linkage, compiled baseline). The kernel here only reads
// it: a wide word's input planes are K consecutive subword loads, and the
// per-word mask phase is dense ANDs over precomputed atom masks. Callers
// either pass a reusable PreparedBatch (detection_matrix_prepared, which the
// `micro_engines backends` gate times) or let the backend build both stages
// into its scratch per call (detection_matrix, the pipeline's path).
//
// EVERYTHING in this header lives in an anonymous namespace on purpose.
// The including TUs are compiled with different ISA flags (backend_avx2.cpp
// gets -mavx2, backend_avx512.cpp gets -mavx512f, the others baseline). With
// ordinary inline/comdat linkage the linker may keep the AVX-compiled copy
// of a shared helper and hand it to the baseline backends — an illegal
// instruction on hosts without AVX. Internal linkage gives every TU its own
// copy compiled with its own flags, which is the whole point of per-TU
// flags. Only the three packed backend .cpp files may include this header.
// The per-gate plane algebra itself lives in sim/packed_eval.hpp, shared
// (under the same internal-linkage rule) with the justifier's lane-batched
// probing.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#ifdef __AVX__  // also set by -mavx512f
#include <immintrin.h>
#endif

#include "core/compiled_circuit.hpp"
#include "faults/screen.hpp"
#include "faultsim/detection_matrix.hpp"
#include "obs/trace.hpp"
#include "runtime/metrics.hpp"
#include "runtime/per_worker.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/backend.hpp"
#include "sim/packed_eval.hpp"
#include "sim/prepared.hpp"
#include "sim/triple_sim.hpp"

namespace pdf::sim {
namespace {

/// Subword access uniform across plain uint64_t and vector-extension types.
/// any() is chosen by the including TU's ISA macros (__AVX512F__, __AVX__),
/// which is one more reason this header must keep internal linkage.
template <typename Vec>
struct VecOps {
  static constexpr std::size_t kSubwords = sizeof(Vec) / sizeof(std::uint64_t);
  static constexpr std::size_t kLanes = kSubwords * 64;
  static std::uint64_t sub(const Vec& v, std::size_t k) { return v[k]; }
  static void or_sub(Vec& v, std::size_t k, std::uint64_t bits) {
    v[k] |= bits;
  }
  static void xor_sub(Vec& v, std::size_t k, std::uint64_t bits) {
    v[k] ^= bits;
  }
  /// Whether any lane is set. This is fault_mask's per-atom early-exit
  /// test, so it is one vector test instruction where the TU's ISA has one
  /// (VPTESTMQ on 512 bits, VPTEST on 256) instead of extracting and ORing
  /// every subword.
  static bool any(const Vec& v) {
#ifdef PATHDELAY_MUTATION_WIDE_ANY_HALF
    // Seeded bug (mutation testing only): only the low half of the
    // subwords is tested, so a fault whose live lanes are all in the high
    // half stops ANDing its atoms early and keeps lanes its later
    // requirements would clear. Only >64-lane backends can see it.
    std::uint64_t half = 0;
    for (std::size_t k = 0; k < kSubwords / 2; ++k) half |= v[k];
    return half != 0;
#endif
#ifdef __AVX512F__
    if constexpr (sizeof(Vec) == 64) {
      const __m512i x = std::bit_cast<__m512i>(v);
      return _mm512_test_epi64_mask(x, x) != 0;
    }
#endif
#ifdef __AVX__
    if constexpr (sizeof(Vec) == 32) {
      const __m256i x = std::bit_cast<__m256i>(v);
      return _mm256_testz_si256(x, x) == 0;
    }
#endif
    std::uint64_t acc = 0;
    for (std::size_t k = 0; k < kSubwords; ++k) acc |= v[k];
    return acc != 0;
  }
};

template <>
struct VecOps<std::uint64_t> {
  static constexpr std::size_t kSubwords = 1;
  static constexpr std::size_t kLanes = 64;
  static std::uint64_t sub(std::uint64_t v, std::size_t) { return v; }
  static void or_sub(std::uint64_t& v, std::size_t, std::uint64_t bits) {
    v |= bits;
  }
  static void xor_sub(std::uint64_t& v, std::size_t, std::uint64_t bits) {
    v ^= bits;
  }
  static bool any(std::uint64_t v) { return v != 0; }
};

/// Mask with the low `lanes` lane bits set (full words in low subwords, one
/// partial subword, zero above) — the tail guard for a partial final word.
template <typename Vec>
Vec make_lane_mask(std::size_t lanes) {
  using Ops = VecOps<Vec>;
  Vec m{};
  for (std::size_t k = 0; k < Ops::kSubwords; ++k) {
    const std::size_t lo = k * 64;
    std::uint64_t bits = 0;
    if (lanes >= lo + 64) {
      bits = ~std::uint64_t{0};
    } else if (lanes > lo) {
      bits = (std::uint64_t{1} << (lanes - lo)) - 1;
    }
    Ops::or_sub(m, k, bits);
  }
  return m;
}

/// Simulates wide word `w` (tests [w*kLanes, w*kLanes + lanes)) into
/// planes[q][node]: loads each input's packed subwords from the call-wide
/// pre-pack, then evaluates gates word-parallel in topo order. Every node is
/// written (inputs here, every gate by the topo sweep — BatchSimulator
/// rejects sequential circuits), so no zeroing pass is needed.
template <typename Vec>
void simulate_wide_word(const CompiledCircuit& cc, const PackedTests& pt,
                        std::size_t w, std::size_t lanes,
                        PlaneVec<Vec>* const planes[3]) {
  using Ops = VecOps<Vec>;
  const std::span<const NodeId> inputs = cc.inputs();

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (int q = 0; q < 3; ++q) {
      const std::uint64_t* kr = pt.row(i, q, 0);
      const std::uint64_t* vr = pt.row(i, q, 1);
      Vec known{};
      Vec value{};
      for (std::size_t k = 0; k < Ops::kSubwords; ++k) {
        const std::size_t col = w * Ops::kSubwords + k;
        if (col >= pt.words64) break;
        Ops::or_sub(known, k, kr[col]);
        Ops::or_sub(value, k, vr[col]);
      }
      planes[q][inputs[i]] = PlaneVec<Vec>{value, known};
    }
  }

#ifdef PATHDELAY_MUTATION_WIDE_LANE_SHUFFLE
  // Seeded bug (mutation testing only): lanes 1 and 65 swap places whenever
  // a word actually spans multiple 64-lane subwords — the canonical
  // lane-ordering defect a wide pack can have. Subword results land in the
  // wrong DetectionMatrix columns, so any wide backend disagrees with
  // scalar/bitpar on batches > 65 tests; the 64-lane backends are immune
  // (the swap needs lane 65 to exist), which is exactly why the
  // cross-backend battery must include a wide one.
  if constexpr (Ops::kSubwords > 1) {
    if (lanes > 65) {
      const auto swap_bit1 = [](Vec& x) {
        const std::uint64_t b1 = (Ops::sub(x, 0) >> 1) & 1;
        const std::uint64_t b65 = (Ops::sub(x, 1) >> 1) & 1;
        if (b1 != b65) {
          Ops::xor_sub(x, 0, 2);
          Ops::xor_sub(x, 1, 2);
        }
      };
      for (NodeId id : inputs) {
        for (int q = 0; q < 3; ++q) {
          swap_bit1(planes[q][id].value);
          swap_bit1(planes[q][id].known);
        }
      }
    }
  }
#endif
  (void)lanes;

  // Word-parallel 3-valued evaluation per plane, level-packed over the
  // compiled arrays.
  for (NodeId id : cc.topo_order()) {
    if (cc.type(id) == GateType::Input) continue;
    for (int q = 0; q < 3; ++q) eval_packed_gate(cc, id, planes[q]);
  }
}

/// One simulated word's mask per unique atom: atom (line, q, polarity)
/// holds on a lane iff the plane is known with the required value there.
template <typename Vec>
void compute_atom_masks(const ReqPlan& plan,
                        const PlaneVec<Vec>* const planes[3], Vec* out) {
  for (std::size_t u = 0; u < plan.atoms.size(); ++u) {
    const std::uint32_t a = plan.atoms[u];
    const PlaneVec<Vec>& pw = planes[(a % 6) / 2][a / 6];
    out[u] = pw.known & ((a & 1) ? pw.value : ~pw.value);
  }
}

/// Detection word of fault `fi`: AND over its atoms' precomputed masks,
/// early-exiting once every lane is dead.
template <typename Vec>
Vec fault_mask(const ReqPlan& plan, std::size_t fi, const Vec* atom_masks,
               Vec lane_mask) {
  using Ops = VecOps<Vec>;
  Vec mask = lane_mask;
  const std::uint32_t* ids = plan.ids.data();
  const std::uint32_t end = plan.offsets[fi + 1];
  for (std::uint32_t k = plan.offsets[fi]; k < end; ++k) {
    mask &= atom_masks[ids[k]];
    if (!Ops::any(mask)) break;
  }
  return mask;
}

/// The test-parallel backend family: simulate one Vec-wide column of tests,
/// then mask every fault against it. bitpar is WideBackend<uint64_t>; avx2
/// and avx512 instantiate it with 256/512-bit vector types in TUs compiled
/// with the matching ISA flags. Parallelizes over wide-word columns with
/// chunk 1, like the PR 6 bitpar loop: every matrix word is a pure function
/// of (circuit, tests, fault), so any partition of the columns over workers
/// produces the same bytes — thread-count determinism by construction.
template <typename Vec>
class WideBackend final : public SimBackend {
 public:
  /// `name` and `span_name` must be string literals (they are stored).
  WideBackend(const char* name, const char* span_name)
      : name_(name),
        span_name_(span_name),
        words_(runtime::Metrics::global().counter(std::string("sim.") + name +
                                                  ".words")),
        grows_(runtime::Metrics::global().counter(std::string("sim.") + name +
                                                  ".scratch_grows")),
        timer_(runtime::Metrics::global().timer(std::string("sim.") + name +
                                                ".matrix")) {}

  const char* name() const override { return name_; }
  std::size_t lanes() const override { return Ops::kLanes; }

  DetectionMatrix detection_matrix(
      const CompiledCircuit& cc, std::span<const TwoPatternTest> tests,
      std::span<const TargetFault> faults) const override {
    // Per-call setup on the calling thread's scratch slot; the parallel
    // phase only reads it. A nested call inlines on its own worker slot,
    // so the buffers can't alias.
    Scratch& cs = scratch_.local();
    const std::size_t words64 = (tests.size() + 63) / 64;
    const bool packed_grow =
        cs.pack.bits.capacity() < cc.inputs().size() * 6 * words64;
    const std::size_t plan_cap = plan_capacity(cs.plan);
    pack_tests(cc, tests, name_, cs.pack);
    build_req_plan(cc, faults, cs.plan);
    if (packed_grow || plan_capacity(cs.plan) != plan_cap) grows_.add();
    return run(cc, tests, faults, cs.pack, cs.plan);
  }

  DetectionMatrix detection_matrix_prepared(
      const CompiledCircuit& cc, std::span<const TwoPatternTest> tests,
      std::span<const TargetFault> faults,
      const PreparedBatch& prep) const override {
    return run(cc, tests, faults, prep.tests_pack, prep.plan);
  }

 private:
  using Ops = VecOps<Vec>;
  /// One column task's simulation state.
  struct Arena {
    std::vector<PlaneVec<Vec>> planes[3];
    std::vector<Vec> atom_masks;
  };
  /// Per calling thread: the per-call setup plus the arenas its calls lend
  /// to their column tasks.
  struct Scratch {
    PackedTests pack;
    ReqPlan plan;
    runtime::TaskArenas<Arena> arenas;
  };

  DetectionMatrix run(const CompiledCircuit& cc,
                      std::span<const TwoPatternTest> tests,
                      std::span<const TargetFault> faults,
                      const PackedTests& pack, const ReqPlan& plan) const {
    const obs::TraceSpan span(span_name_);
    const auto scope = timer_.measure();
    DetectionMatrix matrix(faults.size(), tests.size());
    const std::size_t words_per_row = matrix.words_per_row();
    const std::size_t wide_words =
        (tests.size() + Ops::kLanes - 1) / Ops::kLanes;

    // Size one arena per task that can run concurrently, on the calling
    // thread: the parallel phase never allocates.
    runtime::TaskArenas<Arena>& arenas = scratch_.local().arenas;
    bool grew = false;
    for (Arena& a :
         arenas.prepare(runtime::global_pool().concurrency(wide_words))) {
      grew |= a.planes[0].capacity() < cc.node_count() ||
              a.atom_masks.capacity() < plan.atoms.size();
      for (int q = 0; q < 3; ++q) a.planes[q].resize(cc.node_count());
      a.atom_masks.resize(plan.atoms.size());
    }
    if (grew) grows_.add();

    runtime::global_pool().parallel_for(
        wide_words, 1, [&](std::size_t w0, std::size_t w1) {
          const auto lease = arenas.lease();
          Arena& s = *lease;
          PlaneVec<Vec>* const planes[3] = {s.planes[0].data(),
                                            s.planes[1].data(),
                                            s.planes[2].data()};
          for (std::size_t w = w0; w < w1; ++w) {
            const std::size_t base = w * Ops::kLanes;
            const std::size_t lanes =
                std::min<std::size_t>(Ops::kLanes, tests.size() - base);
            simulate_wide_word<Vec>(cc, pack, w, lanes, planes);
            compute_atom_masks<Vec>(plan, planes, s.atom_masks.data());
            const Vec lane_mask = make_lane_mask<Vec>(lanes);

            for (std::size_t fi = 0; fi < faults.size(); ++fi) {
              const Vec mask =
                  fault_mask<Vec>(plan, fi, s.atom_masks.data(), lane_mask);
              // Subword k is matrix word w*K+k; the final wide word may
              // extend past the row (its high subwords are all-zero under
              // lane_mask), so guard the column index.
              for (std::size_t k = 0; k < Ops::kSubwords; ++k) {
                const std::size_t col = w * Ops::kSubwords + k;
                if (col >= words_per_row) break;
                matrix.word(fi, col) = Ops::sub(mask, k);
              }
            }
          }
          words_.add(w1 - w0);
        });
    return matrix;
  }

  const char* name_;
  const char* span_name_;
  runtime::Metrics::Counter& words_;
  runtime::Metrics::Counter& grows_;
  runtime::Metrics::Timer& timer_;
  mutable runtime::PerWorker<Scratch> scratch_;
};

}  // namespace
}  // namespace pdf::sim
