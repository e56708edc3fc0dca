#include "serve/job.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <utility>

#include "base/error.hpp"
#include "enrich/enrichment.hpp"
#include "gen/registry.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/combinational.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/backend.hpp"
#include "store/serde.hpp"
#include "store/stage_cache.hpp"

namespace pdf::serve {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

/// Registry lookup or inline parse; sequential inline netlists are reduced
/// to their combinational core (same normalization the registry applies to
/// s27). Throws ParseError / ConfigError.
Netlist resolve_netlist(const Request& req) {
  if (!req.circuit.empty()) {
    if (!has_benchmark(req.circuit)) {
      throw ConfigError("unknown circuit '" + req.circuit +
                        "' (see benchmark_catalog)");
    }
    return benchmark_circuit(req.circuit);
  }
  Netlist nl = parse_bench_string(req.bench_text, "inline");
  if (nl.has_sequential()) nl = extract_combinational(nl).netlist;
  return nl;
}

struct CacheDelta {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Snapshot of the store-level hit/miss counters. Deltas around a job are
/// exact when jobs run serially; under concurrency attribution is
/// approximate (the counters are process-global) — documented in
/// protocol.hpp and fine for the hit-ratio metrics they feed.
CacheDelta cache_counters() {
  auto& m = runtime::Metrics::global();
  static auto& hits = m.counter("store.hits");
  static auto& misses = m.counter("store.misses");
  return {hits.read(), misses.read()};
}

}  // namespace

std::string job_circuit_label(const Request& req) {
  if (!req.circuit.empty()) return req.circuit;
  const Netlist nl = resolve_netlist(req);
  return "inline:" + hex64(store::digest(nl));
}

Response run_job(const Request& req, const JobContext& ctx,
                 std::uint64_t serial) {
  Response resp;
  resp.id = req.id;

  auto& m = runtime::Metrics::global();
  static auto& completed = m.counter("serve.jobs.completed");
  static auto& failed = m.counter("serve.jobs.failed");
  static auto& run_hist = m.histogram("serve.latency.run_ns");
  static auto& cache_hits = m.counter("serve.cache.hits");
  static auto& cache_misses = m.counter("serve.cache.misses");

  const obs::TraceSpan span("serve.job");
  const CacheDelta before = cache_counters();
  const auto t0 = std::chrono::steady_clock::now();

  try {
    const bool basic = req.kind == RequestKind::Basic;
    const Netlist nl = resolve_netlist(req);
    const std::string label = !req.circuit.empty()
                                  ? req.circuit
                                  : "inline:" + hex64(store::digest(nl));

    const EnrichmentWorkbench wb(nl, req.target, ctx.cache);
    const GenerationResult gen =
        basic ? wb.run_basic(req.gen) : wb.run_enriched(req.gen);
    const UnionCoverage cov = wb.coverage_of(gen);

    // Deterministic result: a pure function of (netlist, target, gen, kind).
    // No clocks, no cache state — see the protocol.hpp determinism contract.
    obs::Json result;
    result["schema"] = "pdf.serve.result/1";
    result["circuit"] = label;
    result["kind"] = kind_name(req.kind);
    result["np"] = static_cast<std::int64_t>(req.target.n_p);
    result["np0"] = static_cast<std::int64_t>(req.target.n_p0);
    result["seed"] = req.gen.seed;
    result["heuristic"] = heuristic_name(req.gen.heuristic);
    result["i0"] = static_cast<std::int64_t>(wb.targets().i0);
    result["cutoff_length"] = wb.targets().cutoff_length;
    result["p0_total"] = static_cast<std::int64_t>(cov.p0_total);
    result["p1_total"] = static_cast<std::int64_t>(cov.p1_total);
    result["p0_detected"] = static_cast<std::int64_t>(cov.p0_detected);
    result["p1_detected"] = static_cast<std::int64_t>(cov.p1_detected);
    result["union_detected"] = static_cast<std::int64_t>(cov.union_detected());
    result["union_total"] = static_cast<std::int64_t>(cov.union_total());
    result["test_count"] = static_cast<std::int64_t>(gen.tests.size());
    result["tests_digest"] = hex64(store::digest(
        std::span<const TwoPatternTest>(gen.tests.data(), gen.tests.size())));
    if (req.want_tests) {
      obs::Json tests{obs::Json::Array{}};  // empty array even with 0 tests
      for (const auto& t : gen.tests) tests.push_back(t.patterns_string());
      result["tests"] = std::move(tests);
    }
    resp.result = std::move(result);

    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    if (req.want_manifest || !ctx.manifest_dir.empty()) {
      obs::RunInfo info;
      info.bench = "pdf_serve";
      info.seed = req.gen.seed;
      info.n_p = req.target.n_p;
      info.n_p0 = req.target.n_p0;
      info.threads = runtime::global_threads();
      info.backend = sim::selected_backend().name();
      info.store_enabled = ctx.cache != nullptr;
      info.store_dir = ctx.store_dir;
      info.circuits.emplace_back(label, secs);
      if (!ctx.manifest_dir.empty()) {
        const auto path = std::filesystem::path(ctx.manifest_dir) /
                          ("job-" + std::to_string(serial) + ".json");
        obs::write_run_manifest(path.string(), info);
      }
      if (req.want_manifest) resp.manifest = obs::run_manifest(info);
    }
    completed.add();
  } catch (...) {
    resp.status = Status::Error;
    resp.error = classify_error(std::current_exception());
    failed.add();
  }

  const CacheDelta after = cache_counters();
  resp.cache_hits = after.hits - before.hits;
  resp.cache_misses = after.misses - before.misses;
  cache_hits.add(resp.cache_hits);
  cache_misses.add(resp.cache_misses);
  resp.run_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  run_hist.record(resp.run_ns);
  return resp;
}

}  // namespace pdf::serve
