// High-level experiment facade tying target-set construction, the basic
// generator, the enrichment generator and fault simulation together. The
// table benches and examples are thin wrappers over this type.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/generator.hpp"
#include "enrich/target_sets.hpp"
#include "netlist/netlist.hpp"

namespace pdf {

namespace store {
class StageCache;
}

/// Detection summary of a test set over P0 and P1.
struct UnionCoverage {
  std::size_t p0_detected = 0;
  std::size_t p1_detected = 0;
  std::size_t p0_total = 0;
  std::size_t p1_total = 0;

  std::size_t union_detected() const { return p0_detected + p1_detected; }
  std::size_t union_total() const { return p0_total + p1_total; }
};

class EnrichmentWorkbench {
 public:
  /// Builds the target sets for `nl` (which must outlive the workbench).
  /// With a non-null `cache`, every expensive stage — target-set
  /// construction, test generation, coverage simulation — is memoized in the
  /// content-addressed artifact store: warm calls skip the computation and
  /// return bit-identical results (see src/store/ and DESIGN.md §8). The
  /// cache must outlive the workbench.
  EnrichmentWorkbench(const Netlist& nl, const TargetSetConfig& cfg = {},
                      store::StageCache* cache = nullptr);

  const Netlist& netlist() const { return *nl_; }
  const TargetSets& targets() const { return targets_; }

  /// Basic test generation targeting P0 only (paper Section 2).
  GenerationResult run_basic(const GeneratorConfig& cfg = {}) const;

  /// Test enrichment targeting P0 with P1 as the second set (Section 3.2).
  GenerationResult run_enriched(const GeneratorConfig& cfg = {}) const;

  /// One whole enrichment experiment (generation + coverage) per seed. The
  /// seeds run concurrently on the runtime pool — each seed's generation is
  /// self-contained, and any parallelism nested inside a seed (coverage
  /// simulation) runs inline — so results[i] is bit-identical to a
  /// sequential run_enriched/coverage_of with seeds[i], in seed order,
  /// regardless of the thread count.
  struct SeedRun {
    std::uint64_t seed = 0;
    GenerationResult result;
    UnionCoverage coverage;
  };
  std::vector<SeedRun> run_enriched_sweep(std::span<const std::uint64_t> seeds,
                                          const GeneratorConfig& base = {}) const;

  /// Simulates an existing test set against P0 and P1 — the paper's Table 5
  /// accidental-detection experiment when applied to basic test sets.
  UnionCoverage simulate_union(std::span<const TwoPatternTest> tests) const;

  /// Coverage bookkeeping for a GenerationResult.
  UnionCoverage coverage_of(const GenerationResult& r) const;

 private:
  const Netlist* nl_;
  TargetSetConfig cfg_;
  store::StageCache* cache_ = nullptr;
  TargetSets targets_;
};

}  // namespace pdf
