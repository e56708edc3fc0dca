#include "enrich/enrichment.hpp"

#include <algorithm>

#include "faultsim/batch_sim.hpp"
#include "obs/trace.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "store/stage_cache.hpp"

namespace pdf {
namespace {

// One record per generation run (basic or enriched): the resulting test-set
// size. The distribution across circuits/seeds is what Table 6 compaction
// quality looks like from the metrics side.
void note_run(const GenerationResult& r) {
  auto& m = runtime::Metrics::global();
  static auto& runs = m.counter("enrich.runs");
  static auto& tests_hist = m.histogram("enrich.tests_per_run");
  runs.add(1);
  tests_hist.record(r.tests.size());
}

runtime::Metrics::Timer& run_timer() {
  static auto& t = runtime::Metrics::global().timer("enrich.run");
  return t;
}

}  // namespace

EnrichmentWorkbench::EnrichmentWorkbench(const Netlist& nl,
                                         const TargetSetConfig& cfg,
                                         store::StageCache* cache)
    : nl_(&nl),
      cfg_(cfg),
      cache_(cache),
      targets_(store::cached_target_sets(cache, nl, cfg)) {}

GenerationResult EnrichmentWorkbench::run_basic(const GeneratorConfig& cfg) const {
  PDF_TRACE_SPAN("enrich.run_basic");
  const auto timer_scope = run_timer().measure();
  GenerationResult r =
      store::cached_generate(cache_, *nl_, targets_.p0, {}, cfg_, cfg);
  note_run(r);
  return r;
}

GenerationResult EnrichmentWorkbench::run_enriched(
    const GeneratorConfig& cfg) const {
  PDF_TRACE_SPAN("enrich.run_enriched");
  const auto timer_scope = run_timer().measure();
  GenerationResult r = store::cached_generate(cache_, *nl_, targets_.p0,
                                              targets_.p1, cfg_, cfg);
  note_run(r);
  return r;
}

std::vector<EnrichmentWorkbench::SeedRun> EnrichmentWorkbench::run_enriched_sweep(
    std::span<const std::uint64_t> seeds, const GeneratorConfig& base) const {
  PDF_TRACE_SPAN("enrich.sweep");
  std::vector<SeedRun> out(seeds.size());
  runtime::global_pool().parallel_for(
      seeds.size(), 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          GeneratorConfig cfg = base;
          cfg.seed = seeds[i];
          SeedRun& run = out[i];
          run.seed = seeds[i];
          run.result = run_enriched(cfg);
          run.coverage = coverage_of(run.result);
        }
      });
  return out;
}

UnionCoverage EnrichmentWorkbench::simulate_union(
    std::span<const TwoPatternTest> tests) const {
  PDF_TRACE_SPAN("enrich.coverage");
  // Pattern-parallel simulation: identical results to one scalar simulation
  // per test at a fraction of the cost for whole test sets. Memoized when a
  // stage cache is configured.
  return store::cached_union_coverage(cache_, *nl_, tests, targets_.p0,
                                      targets_.p1, cfg_);
}

UnionCoverage EnrichmentWorkbench::coverage_of(const GenerationResult& r) const {
  UnionCoverage c;
  c.p0_total = targets_.p0.size();
  c.p1_total = targets_.p1.size();
  c.p0_detected = r.detected_p0_count();
  // A basic run carries no P1 bookkeeping; fall back to simulation if the
  // flags are absent but P1 exists.
  if (r.detected_p1.size() == targets_.p1.size()) {
    c.p1_detected = r.detected_p1_count();
  } else {
    const auto simulate_p1 = [&] {
      BatchSimulator fsim(*nl_);
      const std::vector<bool> d1 = fsim.detects_any(r.tests, targets_.p1);
      UnionCoverage p1_only;
      p1_only.p1_total = targets_.p1.size();
      p1_only.p1_detected =
          static_cast<std::size_t>(std::count(d1.begin(), d1.end(), true));
      return p1_only;
    };
    if (cache_ == nullptr) {
      c.p1_detected = simulate_p1().p1_detected;
    } else {
      // Distinct final digest ("p1 only") keeps this record from colliding
      // with the full-union coverage of the same test set.
      const UnionCoverage p1_only = cache_->memoize<UnionCoverage>(
          {store::digest(*nl_), store::digest(cfg_),
           store::digest(std::span<const TwoPatternTest>(r.tests)),
           store::xxh64("p1_only")},
          simulate_p1);
      c.p1_detected = p1_only.p1_detected;
    }
  }
  return c;
}

}  // namespace pdf
