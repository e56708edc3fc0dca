// Stage-level memoization over the artifact store.
//
// `StageCache::memoize<T>(input_digests, compute)` is the single entry point
// the pipeline uses: the key folds `Serde<T>::kind`, both format versions
// and every input digest, so two calls collide exactly when they would
// compute the same value. A hit decodes the stored record; a miss (absent,
// corrupt, or undecodable) runs `compute` and publishes the result. Storage
// failures never propagate: the cache silently degrades to recomputation,
// and a null StageCache pointer is the universal "caching disabled" value —
// the cached_* helpers below accept one and fall through.
//
// Per-stage hit/miss counters land in the runtime metrics registry as
// `store.stage.<kind>.{hits,misses}`, next to the byte-level `store.*`
// counters of ArtifactStore.
//
// The cached_* helpers wrap the expensive pipeline stages
// (enumeration+screening via build_target_sets, test generation, coverage
// simulation, detection-matrix construction) with the right key derivation;
// EnrichmentWorkbench and the bench drivers call these instead of the raw
// engines when a store is configured.
#pragma once

#include <filesystem>
#include <span>
#include <utility>

#include "obs/trace.hpp"
#include "runtime/metrics.hpp"
#include "store/artifact_store.hpp"
#include "store/hash.hpp"
#include "store/serde.hpp"

namespace pdf {
class BatchSimulator;
}

namespace pdf::store {

class StageCache {
 public:
  explicit StageCache(std::filesystem::path root) : store_(std::move(root)) {}

  /// Content address for a record of type T: kind, container and kind
  /// versions, and every input digest, folded in order.
  template <typename T>
  static ArtifactKey make_key(std::span<const std::uint64_t> input_digests) {
    Hasher64 h;
    h.update_string(Serde<T>::kind);
    h.update_u64(kContainerVersion);
    h.update_u64(Serde<T>::version);
    for (const std::uint64_t d : input_digests) h.update_u64(d);
    return ArtifactKey{std::string(Serde<T>::kind), h.digest()};
  }

  template <typename T, typename Fn>
  T memoize(std::initializer_list<std::uint64_t> input_digests, Fn&& compute) {
    return memoize<T>(std::span<const std::uint64_t>(input_digests.begin(),
                                                     input_digests.size()),
                      std::forward<Fn>(compute));
  }

  template <typename T, typename Fn>
  T memoize(std::span<const std::uint64_t> input_digests, Fn&& compute) {
    const std::uint64_t span_begin =
        obs::trace_active() ? obs::trace_now_ns() : 0;
    const ArtifactKey key = make_key<T>(input_digests);
    if (auto bytes = store_.get(key, Serde<T>::version)) {
      try {
        ByteReader r(*bytes);
        T value = Serde<T>::get(r);
        stage_counter(Serde<T>::kind, true).add();
        trace_stage(Serde<T>::kind, true, span_begin);
        return value;
      } catch (const SerdeError&) {
        // Checksum-valid but undecodable (e.g. written by a buggy build at
        // the same version). Treat as a miss; the rewrite below heals it.
      }
    }
    stage_counter(Serde<T>::kind, false).add();
    T value = compute();
    ByteWriter w;
    Serde<T>::put(w, value);
    store_.put(key, Serde<T>::version, w.view());
    trace_stage(Serde<T>::kind, false, span_begin);
    return value;
  }

 private:
  static runtime::Metrics::Counter& stage_counter(std::string_view kind,
                                                  bool hit);
  /// Emits a `store.memoize.<kind>.hit|.miss` span covering
  /// [begin_ns, now] into the active trace session, if any.
  static void trace_stage(std::string_view kind, bool hit,
                          std::uint64_t begin_ns);

  ArtifactStore store_;
};

// ---- cached pipeline stages -------------------------------------------------
// Every helper takes `cache == nullptr` to mean "just compute".

/// Enumeration + screening + P0/P1 split (the front of every experiment).
TargetSets cached_target_sets(StageCache* cache, const Netlist& nl,
                              const TargetSetConfig& cfg);

/// Test generation (basic when p1 is empty, enrichment otherwise). The key
/// derives from the netlist and the *configs* that produced the target sets,
/// so it matches across processes without digesting the fault lists.
GenerationResult cached_generate(StageCache* cache, const Netlist& nl,
                                 std::span<const TargetFault> p0,
                                 std::span<const TargetFault> p1,
                                 const TargetSetConfig& target_cfg,
                                 const GeneratorConfig& gen_cfg);

/// Union coverage of a test set over P0/P1 via pattern-parallel simulation.
UnionCoverage cached_union_coverage(StageCache* cache, const Netlist& nl,
                                    std::span<const TwoPatternTest> tests,
                                    std::span<const TargetFault> p0,
                                    std::span<const TargetFault> p1,
                                    const TargetSetConfig& target_cfg);

/// Full fault-by-test detection matrix. The key is backend-free on purpose:
/// every sim::SimBackend produces the bit-identical matrix (DESIGN.md §11),
/// so a record written under one backend is a valid hit under any other.
DetectionMatrix cached_detection_matrix(StageCache* cache,
                                        const BatchSimulator& fsim,
                                        const Netlist& nl,
                                        std::span<const TwoPatternTest> tests,
                                        std::span<const TargetFault> faults);

}  // namespace pdf::store
