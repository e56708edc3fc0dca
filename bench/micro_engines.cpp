// Bench gates of the engines: one mode per run, each exits nonzero when its
// gate fails.
//
//   micro_engines backends [--circuit NAME]
// backend comparison: builds the same detection matrix through every
// registered sim::SimBackend, verifies all matrices are bit-identical to the
// scalar reference and that the steady-state sweeps allocate nothing (the
// sim.<backend>.scratch_grows counters must not move), and reports wall time
// and throughput (tests x faults / sec) per backend. A backend's time is
// its fastest of several windows of at least 100 ms. Exits nonzero unless
// all matrices match, the zero-allocation invariant holds, the bit-parallel
// backend beats scalar by at least 5x, and each registered wide backend
// meets its target over bitpar (DESIGN.md section 11).
//   micro_engines store [--circuit NAME] [--dir DIR]
// cold-vs-warm pipeline comparison through the content-addressed artifact
// store: runs the full enumeration -> ATPG -> coverage -> detection-matrix
// pipeline twice against a fresh store root (default .artifact-store.micro,
// wiped first), verifies the warm results are identical to the cold ones,
// and reports per-phase wall clock, speedup and store hit/miss counts.
//   micro_engines serve [--circuit NAME] [--dir DIR]
// in-process serve::Server throughput: pushes a mixed hot/cold job stream
// through 4 worker shards over a fresh store root (default
// .artifact-store.serve, wiped first and after), verifies every response's
// result object is byte-identical to a direct single-shot run_job of the
// same request, and reports jobs/s, end-to-end latency p50/p99 and the
// stage-cache hit/miss split. Exits nonzero on any mismatch or if the hot
// half of the stream produced no cache hits.
//   micro_engines obs [--circuit NAME]
// instrumentation overhead on the robust-sim hot loop: times the loop bare,
// with PDF_TRACE_SPAN while tracing is disabled (the steady state of every
// run without --trace; budget < 2%), with PDF_LOG while logging is off
// (same one-relaxed-load contract and budget), and with a live
// TraceSession, and reports the overhead percentages.
//
// Any other invocation prints usage and exits 2.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "core/compiled_circuit.hpp"
#include "enrich/enrichment.hpp"
#include "enrich/target_sets.hpp"
#include "faultsim/batch_sim.hpp"
#include "gen/registry.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/backend.hpp"
#include "runtime/metrics.hpp"
#include "sim/triple_sim.hpp"
#include "store/stage_cache.hpp"

namespace {

using namespace pdf;

// ---- shared timing helpers --------------------------------------------------

/// Milliseconds one call of `fn` takes.
double time_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Mean per-call milliseconds of `fn` over one window: `fn` repeats until at
/// least `min_ms` have passed.
double window_ms(const std::function<void()>& fn, double min_ms = 100.0) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  std::size_t calls = 0;
  double elapsed = 0;
  do {
    fn();
    ++calls;
    elapsed =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();
  } while (elapsed < min_ms);
  return elapsed / static_cast<double>(calls);
}

// ---- backend-comparison mode -----------------------------------------------

int run_backend_compare(const std::string& name) {
  const Netlist nl = benchmark_circuit(name);

  TargetSetConfig tcfg;
  tcfg.n_p = 4000;
  tcfg.n_p0 = 300;
  const TargetSets ts = build_target_sets(nl, tcfg);
  if (ts.p0.empty()) {
    std::fprintf(stderr, "no target faults on %s\n", name.c_str());
    return 2;
  }

  constexpr std::size_t kTests = 1024;
  Rng rng(24680);
  std::vector<TwoPatternTest> tests(kTests);
  for (auto& t : tests) {
    t.pi_values.resize(nl.inputs().size());
    for (auto& v : t.pi_values) {
      v = pi_triple(rng.coin() ? V3::One : V3::Zero,
                    rng.coin() ? V3::One : V3::Zero);
    }
  }
  const int windows = 7;
  const double work = static_cast<double>(kTests) * ts.p0.size();

  // Timing re-masks one fixed (tests, faults) batch through the prepared
  // path: the width-independent PI pack + requirement plan are built once
  // via BatchSimulator::prepare and reused by every timed call, so the
  // windows time the kernel alone. No pipeline stage takes this path
  // (enrichment coverage goes through the one-shot detects_any). Each
  // backend also runs the one-shot path once and must produce the same
  // bytes.

  std::printf("== detection_matrix backend comparison ==\n");
  std::printf("circuit: %s (%zu nodes), faults: %zu, tests: %zu\n",
              name.c_str(), nl.node_count(), ts.p0.size(), kTests);
  std::printf("%8s %6s %12s %10s %12s %18s %10s %10s\n", "backend", "lanes",
              "best ms", "speedup", "vs bitpar", "tests*faults/sec",
              "identical", "zero-alloc");

  struct Row {
    const char* backend;
    std::size_t lanes;
    double ms;
    double throughput;
    bool identical;
    bool zero_alloc;
  };
  std::vector<Row> rows;
  DetectionMatrix reference;
  bool all_identical = true;
  bool all_zero_alloc = true;
  sim::PreparedBatch prep;
  for (sim::SimBackend* backend : sim::all_backends()) {
    const BatchSimulator fsim(nl, backend);
    fsim.prepare(tests, ts.p0, prep);
    const DetectionMatrix one_shot = fsim.detection_matrix(tests, ts.p0);
    DetectionMatrix m = fsim.detection_matrix(tests, ts.p0, prep);  // warm
    auto& grows = runtime::Metrics::global().counter(
        "sim." + std::string(backend->name()) + ".scratch_grows");
    const std::uint64_t grows_before = grows.read();
    // One call takes well under a millisecond, so the time of a single call
    // is mostly scheduling noise on a shared host: time windows of at least
    // 100 ms and keep the fastest.
    double ms = 1e300;
    for (int w = 0; w < windows; ++w) {
      ms = std::min(ms, window_ms([&] {
                      m = fsim.detection_matrix(tests, ts.p0, prep);
                    }));
    }
    const bool zero_alloc = grows.read() == grows_before;
    if (rows.empty()) reference = m;
    const bool identical = m == reference && one_shot == reference;
    all_identical = all_identical && identical;
    all_zero_alloc = all_zero_alloc && zero_alloc;
    const double throughput = work / (ms / 1000.0);
    rows.push_back({backend->name(), backend->lanes(), ms, throughput,
                    identical, zero_alloc});
  }
  const Row* bitpar_row = nullptr;
  for (const Row& r : rows) {
    if (std::strcmp(r.backend, "bitpar") == 0) bitpar_row = &r;
  }
  for (const Row& r : rows) {
    std::printf("%8s %6zu %12.3f %9.2fx %11.2fx %18.3e %10s %10s\n", r.backend,
                r.lanes, r.ms, rows.front().ms / r.ms,
                bitpar_row != nullptr ? bitpar_row->ms / r.ms : 0.0,
                r.throughput, r.identical ? "yes" : "NO",
                r.zero_alloc ? "yes" : "NO");
  }

  const double bitpar_speedup =
      bitpar_row != nullptr ? rows.front().ms / bitpar_row->ms : 0.0;
  std::printf("bitpar over scalar: %.2fx (gate: >= 5x)\n", bitpar_speedup);
  // Per-width speedups over bitpar — the wide backends' acceptance targets.
  // Only gate the widths this host registered; clean degradation elsewhere.
  // The targets are the lowest ratios measured on a shared 4-core AVX-512
  // host, rounded down (DESIGN.md section 11): at 1024 tests bitpar spreads
  // 16 word columns over the pool, avx2 4 and avx512 only 2, so the ratios
  // measure how many cores each width gets as much as its lane width.
  bool wide_targets_met = true;
  for (const Row& r : rows) {
    double target = 0.0;
    if (std::strcmp(r.backend, "avx2") == 0) target = 0.9;
    if (std::strcmp(r.backend, "avx512") == 0) target = 0.6;
    if (target == 0.0 || bitpar_row == nullptr) continue;
    const double over_bitpar = bitpar_row->ms / r.ms;
    const bool met = over_bitpar >= target;
    wide_targets_met = wide_targets_met && met;
    std::printf("%s over bitpar: %.2fx (gate: >= %.1fx) %s\n", r.backend,
                over_bitpar, target, met ? "" : "FAIL");
  }
  return all_identical && all_zero_alloc && bitpar_speedup >= 5.0 &&
                 wide_targets_met
             ? 0
             : 1;
}

// ---- cold-vs-warm store mode -----------------------------------------------

struct StoreCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;

  static StoreCounters read() {
    auto& m = runtime::Metrics::global();
    return {m.counter("store.hits").read(), m.counter("store.misses").read(),
            m.counter("store.bytes_read").read(),
            m.counter("store.bytes_written").read()};
  }
};

int run_store_mode(const std::string& name, const std::string& dir) {
  const Netlist nl = benchmark_circuit(name);
  TargetSetConfig tcfg;
  tcfg.n_p = 4000;
  tcfg.n_p0 = 300;
  GeneratorConfig g;
  g.heuristic = CompactionHeuristic::Value;
  g.seed = 1;

  // Fresh root so the first pass is genuinely cold.
  std::filesystem::remove_all(dir);
  store::StageCache cache{dir};

  using clock = std::chrono::steady_clock;
  struct PassResult {
    GenerationResult enriched;
    UnionCoverage coverage;
    DetectionMatrix matrix;
    double ms = 0;
    StoreCounters counters;
  };
  const auto run_pass = [&]() {
    runtime::Metrics::global().reset();
    const auto t0 = clock::now();
    PassResult r;
    const EnrichmentWorkbench wb(nl, tcfg, &cache);
    r.enriched = wb.run_enriched(g);
    r.coverage = wb.coverage_of(r.enriched);
    const BatchSimulator fsim(nl);
    r.matrix = store::cached_detection_matrix(&cache, fsim, nl,
                                              r.enriched.tests,
                                              wb.targets().p0);
    r.ms = std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    r.counters = StoreCounters::read();
    return r;
  };

  const PassResult cold = run_pass();
  const PassResult warm = run_pass();

  const bool identical =
      cold.enriched.tests.size() == warm.enriched.tests.size() &&
      std::equal(cold.enriched.tests.begin(), cold.enriched.tests.end(),
                 warm.enriched.tests.begin(),
                 [](const TwoPatternTest& a, const TwoPatternTest& b) {
                   return a.pi_values == b.pi_values;
                 }) &&
      cold.coverage.p0_detected == warm.coverage.p0_detected &&
      cold.coverage.p1_detected == warm.coverage.p1_detected &&
      cold.matrix == warm.matrix;

  std::printf("== artifact-store cold vs warm pipeline ==\n");
  std::printf("circuit: %s (%zu nodes), store root: %s\n", name.c_str(),
              nl.node_count(), dir.c_str());
  std::printf("pipeline: target sets -> enriched ATPG -> coverage -> "
              "detection matrix\n");
  std::printf("%8s %12s %10s %8s %8s %14s\n", "pass", "wall ms", "speedup",
              "hits", "misses", "bytes");
  std::printf("%8s %12.3f %10s %8llu %8llu %14llu\n", "cold", cold.ms, "1.00x",
              static_cast<unsigned long long>(cold.counters.hits),
              static_cast<unsigned long long>(cold.counters.misses),
              static_cast<unsigned long long>(cold.counters.bytes_written));
  std::printf("%8s %12.3f %9.2fx %8llu %8llu %14llu\n", "warm", warm.ms,
              cold.ms / warm.ms,
              static_cast<unsigned long long>(warm.counters.hits),
              static_cast<unsigned long long>(warm.counters.misses),
              static_cast<unsigned long long>(warm.counters.bytes_read));
  std::printf("results identical: %s; warm misses: %llu\n",
              identical ? "yes" : "NO",
              static_cast<unsigned long long>(warm.counters.misses));
  return identical && warm.counters.misses == 0 ? 0 : 1;
}

// ---- tracing-overhead mode -------------------------------------------------

int run_obs_mode(const std::string& name) {
  const Netlist nl = benchmark_circuit(name);
  const CompiledCircuit cc(nl);
  SimScratch scratch;

  constexpr std::size_t kTests = 64;
  Rng rng(12345);
  std::vector<std::vector<Triple>> tests(kTests);
  for (auto& pis : tests) {
    pis.resize(nl.inputs().size());
    for (auto& t : pis) {
      t = pi_triple(rng.coin() ? V3::One : V3::Zero,
                    rng.coin() ? V3::One : V3::Zero);
    }
  }

  const int repeats =
      static_cast<int>(std::max<std::size_t>(1, 2'000'000 / nl.node_count()));
  const int rounds = 9;

  // Every loop folds one value of each result into the sink, so no variant
  // can drop the simulation.
  volatile int sink = 0;
  const auto sim = [&](int r) {
    const auto values = simulate(cc, tests[r % kTests], scratch);
    sink = static_cast<int>(values.back().a3);
  };
  // Bare loop: no instrumentation at all.
  const auto bare = [&] {
    for (int r = 0; r < repeats; ++r) sim(r);
  };
  // Span marker present: one relaxed load per iteration while tracing is
  // disabled (the cost every table run pays without --trace), two clock
  // reads plus a ring write while a session records.
  const auto span = [&] {
    for (int r = 0; r < repeats; ++r) {
      PDF_TRACE_SPAN("obs.robust_sim");
      sim(r);
    }
  };
  // Log statement present, logging off: the PDF_LOG macro mirrors the
  // PDF_TRACE_SPAN cost contract — one relaxed load per iteration when the
  // level gate fails, no formatting, no allocation.
  const auto log = [&] {
    for (int r = 0; r < repeats; ++r) {
      PDF_LOG(Debug, "obs.robust_sim").num("r", std::int64_t{r});
      sim(r);
    }
  };
  obs::set_log_level(obs::LogLevel::Off);

  // One untimed pass warms the scratch and caches; then each round times the
  // four variants back to back, so a slow stretch of the host hits them all
  // alike instead of whichever variant ran first.
  bare();
  obs::TraceSession session;
  double base_ms = 1e300, disabled_ms = 1e300, log_off_ms = 1e300,
         enabled_ms = 1e300;
  for (int round = 0; round < rounds; ++round) {
    base_ms = std::min(base_ms, time_ms(bare));
    disabled_ms = std::min(disabled_ms, time_ms(span));
    log_off_ms = std::min(log_off_ms, time_ms(log));
    if (!session.start(std::size_t{1} << 20)) {
      std::fprintf(stderr, "could not start trace session\n");
      return 2;
    }
    enabled_ms = std::min(enabled_ms, time_ms(span));
    session.stop();
  }
  const std::uint64_t events = session.events().size();
  const std::uint64_t dropped = session.dropped();

  const double disabled_pct = (disabled_ms / base_ms - 1.0) * 100.0;
  const double log_off_pct = (log_off_ms / base_ms - 1.0) * 100.0;
  const double enabled_pct = (enabled_ms / base_ms - 1.0) * 100.0;
  std::printf("== instrumentation overhead on robust simulation ==\n");
  std::printf("circuit: %s (%zu nodes), repeats per round: %d, best of %d\n",
              name.c_str(), nl.node_count(), repeats, rounds);
  std::printf("bare loop:          %10.3f ms\n", base_ms);
  std::printf("span, tracing off:  %10.3f ms (%+.2f%%)\n", disabled_ms,
              disabled_pct);
  std::printf("log, logging off:   %10.3f ms (%+.2f%%)\n", log_off_ms,
              log_off_pct);
  std::printf("span, tracing on:   %10.3f ms (%+.2f%%)\n", enabled_ms,
              enabled_pct);
  std::printf("events recorded: %llu, dropped: %llu\n",
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(dropped));
  // The acceptance budget for either disabled path (tracing, logging) is
  // 2%; gate CI at a much looser bound so scheduler noise on loaded runners
  // can't flake the job while a real regression (a lock, clock read, or
  // formatting on a disabled path, typically >> 25%) still fails it.
  if (disabled_pct > 25.0) {
    std::fprintf(stderr, "FAIL: disabled-tracing overhead %.2f%% > 25%%\n",
                 disabled_pct);
    return 1;
  }
  if (log_off_pct > 25.0) {
    std::fprintf(stderr, "FAIL: disabled-logging overhead %.2f%% > 25%%\n",
                 log_off_pct);
    return 1;
  }
  return 0;
}

// `micro_engines serve`: in-process serve::Server throughput. A mixed
// hot/cold job stream (half the jobs share one seed and become StageCache
// hits after the first completion) is pushed through 4 worker shards; every
// response's deterministic result object is verified byte-identical to a
// direct single-shot run_job of the same request, and the run reports
// throughput plus the serve-side queue/latency distribution.
int run_serve_mode(const std::string& name, const std::string& dir) {
  std::filesystem::remove_all(dir);

  serve::ServerConfig cfg;
  cfg.concurrency = 4;
  cfg.queue_depth = 64;
  cfg.store_dir = dir;

  constexpr int kJobs = 32;
  const auto make_job = [&](int j) {
    serve::Request req;
    req.id = j + 1;
    req.kind = serve::RequestKind::Enrich;
    req.circuit = name;
    req.target.n_p = 300;
    req.target.n_p0 = 40;
    req.gen.seed = j % 2 == 0 ? 1 : static_cast<std::uint64_t>(100 + j);
    return req;
  };

  std::mutex mu;
  std::condition_variable cv;
  std::vector<serve::Response> responses;
  const auto t0 = std::chrono::steady_clock::now();
  {
    serve::Server server(cfg);
    for (int j = 0; j < kJobs; ++j) {
      server.submit(make_job(j), [&](serve::Response r) {
        std::lock_guard<std::mutex> lk(mu);
        responses.push_back(std::move(r));
        cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return responses.size() == kJobs; });
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::uint64_t hits = 0, misses = 0;
  std::vector<double> latency_ms;
  const serve::JobContext uncached{};
  std::map<std::uint64_t, std::string> expected;  // seed -> result bytes
  bool ok = true;
  for (const auto& resp : responses) {
    if (resp.status != serve::Status::Ok) {
      std::fprintf(stderr, "FAIL: job %lld: %s\n",
                   static_cast<long long>(resp.id),
                   resp.error.message.c_str());
      ok = false;
      continue;
    }
    hits += resp.cache_hits;
    misses += resp.cache_misses;
    latency_ms.push_back(static_cast<double>(resp.queue_ns + resp.run_ns) /
                         1e6);
    const serve::Request ref = make_job(static_cast<int>(resp.id - 1));
    auto it = expected.find(ref.gen.seed);
    if (it == expected.end()) {
      it = expected
               .emplace(ref.gen.seed,
                        serve::run_job(ref, uncached).result.dump())
               .first;
    }
    if (resp.result.dump() != it->second) {
      std::fprintf(stderr, "FAIL: job %lld result differs from single-shot\n",
                   static_cast<long long>(resp.id));
      ok = false;
    }
  }
  std::sort(latency_ms.begin(), latency_ms.end());
  const auto pct = [&](double q) {
    if (latency_ms.empty()) return 0.0;
    return latency_ms[static_cast<std::size_t>(
        q * static_cast<double>(latency_ms.size() - 1))];
  };

  std::printf("== in-process serve throughput ==\n");
  std::printf("circuit: %s, jobs: %d (hot/cold mix), workers: %zu\n",
              name.c_str(), kJobs, cfg.concurrency);
  std::printf("wall: %.3f s, throughput: %.1f jobs/s\n", secs,
              secs > 0 ? kJobs / secs : 0.0);
  std::printf("latency_ms: p50 %.2f p99 %.2f\n", pct(0.50), pct(0.99));
  std::printf("stage-cache: %llu hits, %llu misses\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses));
  std::printf("single-shot equivalence: %s\n", ok ? "ok" : "MISMATCH");
  std::filesystem::remove_all(dir);
  // The warm half of the stream must actually have hit the cache.
  if (hits == 0) {
    std::fprintf(stderr, "FAIL: hot jobs produced no stage-cache hits\n");
    return 1;
  }
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: micro_engines backends [--circuit NAME]\n"
               "       micro_engines store [--circuit NAME] [--dir DIR]\n"
               "       micro_engines serve [--circuit NAME] [--dir DIR]\n"
               "       micro_engines obs [--circuit NAME]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  // Per-mode defaults; an empty store_dir means the mode takes no --dir.
  std::string circuit_name;
  std::string store_dir;
  if (mode == "backends") {
    circuit_name = "s1196_like";  // the acceptance circuit for the 5x gate
  } else if (mode == "store") {
    circuit_name = "s1196_like";  // mid-size default: cold pass in seconds
    store_dir = ".artifact-store.micro";
  } else if (mode == "serve") {
    circuit_name = "s27";  // per-job cost small: throughput, not ATPG time
    store_dir = ".artifact-store.serve";
  } else if (mode == "obs") {
    circuit_name = "s13207_like";
  } else {
    return usage();
  }
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    std::string* value = nullptr;
    if (flag == "--circuit") value = &circuit_name;
    if (flag == "--dir" && !store_dir.empty()) value = &store_dir;
    if (value == nullptr || i + 1 >= argc || argv[i + 1][0] == '\0') {
      return usage();
    }
    *value = argv[++i];
  }
  if (!has_benchmark(circuit_name)) {
    std::fprintf(stderr, "unknown circuit '%s' (see bench_atpg --list)\n",
                 circuit_name.c_str());
    return 2;
  }
  if (mode == "backends") return run_backend_compare(circuit_name);
  if (mode == "store") return run_store_mode(circuit_name, store_dir);
  if (mode == "serve") return run_serve_mode(circuit_name, store_dir);
  return run_obs_mode(circuit_name);
}
