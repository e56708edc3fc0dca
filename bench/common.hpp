// Shared command-line plumbing for the table-reproduction benches.
//
// Every bench accepts:
//   --paper          paper-scale parameters (N_P=10000, N_P0=1000); slower
//   --np N --np0 N   explicit overrides
//   --seed S         RNG seed (default 1)
//   --circuits a,b   restrict the circuit list
//   --csv            also print CSV after the table
//   --threads N      size the runtime thread pool (default 1;
//                    0 = hardware concurrency)
//   --metrics        dump the runtime metrics registry to stderr at exit
//   --metrics-json F write a machine-readable run manifest (JSON) to F
//   --trace F        record a span trace and write Chrome-trace JSON to F
//                    (open in Perfetto / chrome://tracing)
//   --store DIR      artifact-store root for stage memoization
//                    (default .artifact-store/; warm reruns skip
//                    enumeration/ATPG/simulation and reproduce the cold
//                    outputs bit-identically — see DESIGN.md §8)
//   --no-store       disable the artifact store (every stage recomputes)
// Defaults are the scaled parameters recorded in EXPERIMENTS.md
// (N_P=4000, N_P0=300), chosen so the full table reproduces in seconds.
// Batched fault simulation runs on the host's widest backend
// (sim::selected_backend(); cap it with PDF_SIMD); every backend emits
// bit-identical results, see DESIGN.md §11.
//
// Observability flags never touch stdout: traces and manifests go to their
// files, diagnostics to stderr, so table output stays bit-identical with
// and without them (DESIGN.md §9).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/number.hpp"
#include "enrich/enrichment.hpp"
#include "gen/registry.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "report/table.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/backend.hpp"
#include "store/stage_cache.hpp"

namespace pdf::bench {

struct Options {
  std::size_t n_p = 4000;
  std::size_t n_p0 = 300;
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  bool csv = false;
  bool paper = false;
  bool metrics = false;
  bool use_store = true;
  std::string store_dir = ".artifact-store";
  std::string trace_file;
  std::string metrics_json_file;
  std::string bench_name;  // basename of argv[0]
  std::vector<std::string> circuits;
  std::shared_ptr<store::StageCache> stage_cache;
  std::shared_ptr<obs::TraceSession> trace_session;
  /// (circuit, wall seconds) filled by CircuitScope, in run order.
  std::shared_ptr<std::vector<std::pair<std::string, double>>> circuit_seconds =
      std::make_shared<std::vector<std::pair<std::string, double>>>();

  /// The stage cache to thread through the pipeline: null when --no-store.
  store::StageCache* cache() const { return stage_cache.get(); }
};

/// Prints the runtime metrics registry to stderr when --metrics was given.
inline void dump_metrics(const Options& o) {
  if (!o.metrics) return;
  std::fprintf(stderr, "\n-- runtime metrics --\n%s",
               runtime::Metrics::global().dump().c_str());
}

/// Times one circuit of a bench run for the manifest and marks it as a
/// top-level trace span ("bench.<circuit>"). Instantiate inside the
/// per-circuit loop of a driver.
class CircuitScope {
 public:
  CircuitScope(const Options& o, const std::string& circuit)
      : seconds_(o.circuit_seconds.get()),
        circuit_(circuit),
        start_(std::chrono::steady_clock::now()) {
    if (obs::trace_active() && o.trace_session) {
      span_name_ = o.trace_session->intern("bench." + circuit);
      span_begin_ns_ = obs::trace_now_ns();
    }
  }
  ~CircuitScope() {
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    if (seconds_ != nullptr) seconds_->emplace_back(circuit_, secs);
    if (span_name_ != nullptr) {
      if (obs::TraceSession* s = obs::active_session()) {
        s->record(span_name_, span_begin_ns_, obs::trace_now_ns());
      }
    }
  }
  CircuitScope(const CircuitScope&) = delete;
  CircuitScope& operator=(const CircuitScope&) = delete;

 private:
  std::vector<std::pair<std::string, double>>* seconds_;
  std::string circuit_;
  std::chrono::steady_clock::time_point start_;
  const char* span_name_ = nullptr;
  std::uint64_t span_begin_ns_ = 0;
};

/// End-of-run hook: stderr metrics dump, trace export, manifest export.
/// Replaces the old bare dump_metrics(o) call at the end of every driver.
inline void finish_run(const Options& o) {
  dump_metrics(o);
  obs::RunInfo info;
  if (o.trace_session) {
    o.trace_session->stop();
    if (!o.trace_file.empty() &&
        !o.trace_session->write_chrome_json(o.trace_file)) {
      std::fprintf(stderr, "warning: could not write trace to %s\n",
                   o.trace_file.c_str());
    }
    info.trace_events = o.trace_session->events().size();
    info.trace_dropped = o.trace_session->dropped();
  }
  if (o.metrics_json_file.empty()) return;
  info.bench = o.bench_name;
  info.seed = o.seed;
  info.n_p = o.n_p;
  info.n_p0 = o.n_p0;
  info.threads = runtime::global_threads();
  info.backend = sim::selected_backend().name();
  info.paper = o.paper;
  info.store_enabled = o.use_store;
  info.store_dir = o.use_store ? o.store_dir : "";
  info.circuits = *o.circuit_seconds;
  if (!obs::write_run_manifest(o.metrics_json_file, info)) {
    std::fprintf(stderr, "warning: could not write manifest to %s\n",
                 o.metrics_json_file.c_str());
  }
}

inline Options parse_options(int argc, char** argv,
                             std::vector<std::string> default_circuits) {
  Options o;
  o.circuits = std::move(default_circuits);
  if (argc > 0) {
    std::string prog = argv[0];
    const std::size_t slash = prog.find_last_of("/\\");
    o.bench_name =
        slash == std::string::npos ? prog : prog.substr(slash + 1);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_number = [&]() -> std::uint64_t {
      const char* text = next();
      const std::optional<std::uint64_t> v = parse_decimal(text);
      if (!v) {
        std::fprintf(stderr, "%s needs a whole decimal number, got '%s'\n",
                     a.c_str(), text);
        std::exit(2);
      }
      return *v;
    };
    if (a == "--paper") {
      o.paper = true;
      o.n_p = 10000;
      o.n_p0 = 1000;
    } else if (a == "--np") {
      o.n_p = next_number();
    } else if (a == "--np0") {
      o.n_p0 = next_number();
    } else if (a == "--seed") {
      o.seed = next_number();
    } else if (a == "--csv") {
      o.csv = true;
    } else if (a == "--threads") {
      o.threads = next_number();
    } else if (a == "--metrics") {
      o.metrics = true;
    } else if (a == "--metrics-json") {
      o.metrics_json_file = next();
    } else if (a == "--trace") {
      o.trace_file = next();
    } else if (a == "--store") {
      o.store_dir = next();
      o.use_store = true;
    } else if (a == "--no-store") {
      o.use_store = false;
    } else if (a == "--circuits") {
      o.circuits.clear();
      std::string list = next();
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string name = list.substr(
            start, comma == std::string::npos ? std::string::npos : comma - start);
        if (!name.empty()) o.circuits.push_back(name);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "options: [--paper] [--np N] [--np0 N] [--seed S] [--csv] "
          "[--threads N] [--metrics] [--metrics-json FILE] "
          "[--trace FILE] [--store DIR] [--no-store] "
          "[--circuits a,b,c]\n"
          "backend: batched fault simulation runs on %s, the widest this\n"
          "host supports (PDF_SIMD caps it); every backend produces\n"
          "bit-identical results at any thread count.\n",
          sim::selected_backend().name());
      std::printf(
          "store: stages (enumeration, ATPG, fault simulation) are memoized\n"
          "in a content-addressed artifact store (default .artifact-store/);\n"
          "warm runs skip recomputation and emit identical outputs.\n"
          "--no-store recomputes everything; --metrics shows store.* hit/miss\n"
          "counters.\n"
          "observability: --trace records a span trace (Chrome-trace JSON,\n"
          "opens in Perfetto); --metrics-json writes a run manifest with all\n"
          "counters/timers/histograms. Neither changes stdout.\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option %s (try --help)\n", a.c_str());
      std::exit(2);
    }
  }
  // Reject an unknown circuit before any circuit runs, not in the middle of
  // the table.
  for (const std::string& name : o.circuits) {
    if (!has_benchmark(name)) {
      std::fprintf(stderr,
                   "unknown circuit %s (examples/bench_atpg --list names "
                   "them)\n",
                   name.c_str());
      std::exit(2);
    }
  }
  if (o.threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    o.threads = hw == 0 ? 1 : hw;
  }
  try {
    runtime::set_global_threads(o.threads);  // throws above kMaxThreads
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
  if (o.use_store) {
    o.stage_cache = std::make_shared<store::StageCache>(o.store_dir);
  }
  if (!o.trace_file.empty()) {
    o.trace_session = std::make_shared<obs::TraceSession>();
    if (!o.trace_session->start()) {
      std::fprintf(stderr,
                   "warning: another trace session is active; --trace off\n");
      o.trace_session.reset();
    }
  }
  return o;
}

inline TargetSetConfig target_config(const Options& o) {
  TargetSetConfig cfg;
  cfg.n_p = o.n_p;
  cfg.n_p0 = o.n_p0;
  return cfg;
}

inline void print_header(const char* what, const Options& o) {
  std::printf("== %s ==\n", what);
  std::printf("parameters: N_P=%zu, N_P0=%zu, seed=%llu%s\n\n", o.n_p, o.n_p0,
              static_cast<unsigned long long>(o.seed),
              o.paper ? " (paper scale)" : " (scaled; see EXPERIMENTS.md)");
}

inline void emit(const Table& t, const Options& o) {
  t.print(std::cout);
  if (o.csv) {
    std::printf("\ncsv:\n%s", t.to_csv().c_str());
  }
  std::printf("\n");
}

}  // namespace pdf::bench
