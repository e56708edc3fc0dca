// pdf_perfbench: the repository benchmark program.
//
//   pdf_perfbench --workload NAME --seed N --seconds T --trace 0|1
//                 [--out-dir DIR]
//
// Runs one workload in this process: several timed set-ups, then passes until
// T seconds are used, then output checks. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the lines before it
// are a human-readable report (host fingerprint, output digests, every metric
// with its unit, per-layer self-times). With --trace 0 the metrics are the
// end-to-end ones. With --trace 1 an untraced window is followed by a traced
// one, and the metrics are per layer, per pass of the traced window; the
// traced window's spans are written as Chrome-trace JSON into DIR.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "obs/json.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/backend.hpp"
#include "sim/cpu_features.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void report(const std::string& line) { std::printf("%s\n", line.c_str()); }

namespace {

/// Quantile by the nearest-rank rule; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

using pdf::obs::Json;
using pdf::obs::TraceSession;
using pdf::runtime::Metrics;

constexpr int kSetupSamples = 11;
constexpr double kSetupBurstS = 0.1;
constexpr std::size_t kTraceRing = std::size_t{1} << 20;  // events per thread
const char* const kLayers[] = {"paths", "faults", "enrich", "atpg",
                               "faultsim", "sim", "store", "serve"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "pdf_perfbench: %s\nusage: pdf_perfbench --workload "
               "enrich_p0p1|basic_p0|grade_random|serve_mixed --seed N "
               "--seconds T --trace 0|1 [--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(a));
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (!(o.seconds > 0)) usage("--seconds must be positive");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else {
      usage("unknown flag " + std::string(a));
    }
    if (end != nullptr && *end != '\0') usage("bad number for " + std::string(a));
  }
  return o;
}

std::unique_ptr<Workload> make(const Options& o) {
  if (o.workload == "enrich_p0p1") return make_enrich_p0p1(o);
  if (o.workload == "basic_p0") return make_basic_p0(o);
  if (o.workload == "grade_random") return make_grade_random(o);
  if (o.workload == "serve_mixed") return make_serve_mixed(o);
  usage("unknown workload '" + o.workload + "'");
}

/// What the result depends on besides the code: results whose fingerprints
/// differ are not comparable.
Json fingerprint() {
  Json f;
  f["backend"] = pdf::sim::selected_backend().name();
  f["isa"] = pdf::sim::simd_level_name(pdf::sim::simd_level());
  f["nproc"] = static_cast<long long>(std::thread::hardware_concurrency());
  f["build_type"] = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
  f["compiler"] = "clang " __clang_version__;
#elif defined(__GNUC__)
  f["compiler"] = "gcc " __VERSION__;
#else
  f["compiler"] = "unknown";
#endif
  return f;
}

void timed_pass(Workload& w, Run& run) {
  const std::uint64_t begin = pdf::obs::trace_now_ns();
  run.pass_s.push_back(w.pass(run));
  run.pass_ns.emplace_back(begin, pdf::obs::trace_now_ns());
}

/// Passes until `seconds` have elapsed (at least one), after an unmeasured
/// warm-up pass when `warm_up` is set (its checks still count).
void window(Workload& w, Run& run, double seconds, bool warm_up) {
  if (warm_up) {
    Run first;
    timed_pass(w, first);
    run.attempted += first.attempted;
    run.failed += first.failed;
  }
  const auto t0 = Clock::now();
  do {
    timed_pass(w, run);
  } while (seconds_since(t0) < seconds);
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<double> job_ms(const Run& run, int kind) {
  std::vector<double> out;
  for (const auto& j : run.jobs) {
    if (kind < 0 || j.kind == kind) out.push_back(j.ms);
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::vector<Metric> end_to_end(const Run& run, const std::vector<double>& setups) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const std::vector<double> all = job_ms(run, -1);
  return {
      {"setup_s", quantile(setups, 0.5), "s"},
      {"wall_s", quantile(run.pass_s, 0.5), "s"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
      {"test_count", run.test_count, "count"},
      {"p0_detected_frac", ratio(run.p0_detected, run.p0_total), "frac"},
      {"union_detected_frac", ratio(run.union_detected, run.union_total), "frac"},
      {"jobs_per_s", ratio(static_cast<double>(all.size()), sum(run.pass_s)), "1/s"},
      {"job_p50_ms", quantile(all, 0.5), "ms"},
      {"job_p90_ms", quantile(all, 0.9), "ms"},
  };
}

// ---- trace attribution ------------------------------------------------------

std::string layer_of(std::string_view name) {
  return std::string(name.substr(0, name.find('.')));
}

struct Attribution {
  std::map<std::string, double> self_s;      // per layer
  std::map<std::string, double> hot_self_s;  // per layer, store-hit serve jobs
  double hot_s = 0;                          // wall of those jobs
};

/// Self time (span minus its direct children) per layer, over the events that
/// began inside a pass. Spans nest per thread, so children are found with one
/// stack per thread. A serve.job span none of whose descendants missed the
/// store is a hot job; its subtree is also tallied separately.
Attribution attribute(const std::vector<TraceSession::Event>& all,
                      const std::vector<std::pair<std::uint64_t, std::uint64_t>>& passes) {
  std::vector<TraceSession::Event> evs;
  for (const auto& e : all) {
    for (const auto& [b, end] : passes) {
      if (e.begin_ns >= b && e.begin_ns < end) {
        evs.push_back(e);
        break;
      }
    }
  }
  std::stable_sort(evs.begin(), evs.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
    return a.dur_ns > b.dur_ns;  // the enclosing span first
  });
  const std::size_t n = evs.size();
  std::vector<double> child_ns(n, 0);
  std::vector<std::size_t> root(n);
  std::vector<bool> missed(n, false);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && evs[i].tid != evs[i - 1].tid) stack.clear();
    while (!stack.empty() &&
           evs[stack.back()].begin_ns + evs[stack.back()].dur_ns <= evs[i].begin_ns) {
      stack.pop_back();
    }
    root[i] = stack.empty() ? i : stack.front();
    if (!stack.empty()) child_ns[stack.back()] += static_cast<double>(evs[i].dur_ns);
    if (std::string_view(evs[i].name).ends_with(".miss")) missed[root[i]] = true;
    stack.push_back(i);
  }
  Attribution a;
  for (std::size_t i = 0; i < n; ++i) {
    const double self =
        std::max(0.0, static_cast<double>(evs[i].dur_ns) - child_ns[i]) / 1e9;
    const std::string layer = layer_of(evs[i].name);
    a.self_s[layer] += self;
    const auto& r = evs[root[i]];
    if (std::string_view(r.name) == "serve.job" && !missed[root[i]]) {
      a.hot_self_s[layer] += self;
      if (root[i] == i) a.hot_s += static_cast<double>(r.dur_ns) / 1e9;
    }
  }
  return a;
}

std::vector<Metric> per_layer(const Run& plain, const Run& traced,
                              const Metrics::Snapshot& delta,
                              const Attribution& attr) {
  const double passes = static_cast<double>(traced.pass_s.size());
  const auto t = [&](const char* key) {
    const auto it = traced.tally.find(key);
    return it == traced.tally.end() ? 0.0 : it->second;
  };
  const auto per_pass = [&](double v) { return v / passes; };
  const auto counter = [&](const std::string& key) {
    const auto it = delta.counters.find(key);
    return it == delta.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto timer_s = [&](const std::string& key) {
    const auto it = delta.timers.find(key);
    return it == delta.timers.end() ? 0.0
                                    : static_cast<double>(it->second.total_ns) / 1e9;
  };
  const std::string backend = pdf::sim::selected_backend().name();
  const double accepted = t("atpg.secondary_accepted");
  const double candidates = accepted + t("atpg.secondary_rejected");
  const double hits = counter("store.hits");
  const double misses = counter("store.misses");

  std::vector<Metric> m = {
      {"atpg.generate_s", per_pass(t("atpg.generate_s")), "s"},
      {"atpg.candidates", per_pass(candidates), "count"},
      {"atpg.secondary_accept_frac", ratio(accepted, candidates), "frac"},
      {"atpg.primary_fail_frac",
       ratio(t("atpg.primary_failures"), t("atpg.primary_attempts")), "frac"},
      {"atpg.justify_attempts", per_pass(t("atpg.justify_attempts")), "count"},
      {"atpg.justify_success_frac",
       ratio(t("atpg.justify_successes"), t("atpg.justify_attempts")), "frac"},
      {"atpg.probes", per_pass(t("atpg.probes")), "count"},
      {"atpg.probes_per_attempt",
       ratio(t("atpg.probes"), t("atpg.justify_attempts")), "count"},
      {"paths.enumerate_s", per_pass(timer_s("paths.enumerate")), "s"},
      {"paths.enumerate_steps", per_pass(counter("paths.enumerate.steps")), "count"},
      {"faults.screen_s", per_pass(t("faults.screen_s")), "s"},
      {"faults.screen_kept_frac",
       ratio(t("faults.screen_kept"), t("faults.screen_input")), "frac"},
      {"enrich.targets_s", per_pass(t("enrich.targets_s")), "s"},
      {"enrich.p0_faults", per_pass(t("enrich.p0_faults")), "count"},
      {"enrich.p1_faults", per_pass(t("enrich.p1_faults")), "count"},
      {"enrich.coverage_s", per_pass(t("enrich.coverage_s")), "s"},
      {"faultsim.matrix_s", per_pass(t("faultsim.matrix_s")), "s"},
      {"faultsim.cells", per_pass(t("faultsim.cells")), "count"},
      {"faultsim.cells_per_s", ratio(t("faultsim.cells"), t("faultsim.matrix_s")),
       "1/s"},
      {"sim.words", per_pass(counter("sim." + backend + ".words")), "count"},
      {"sim.scratch_grows", per_pass(counter("sim." + backend + ".scratch_grows")),
       "count"},
      {"store.hits", per_pass(hits), "count"},
      {"store.misses", per_pass(misses), "count"},
      {"store.hit_frac", ratio(hits, hits + misses), "frac"},
      {"store.read_s", per_pass(timer_s("store.read_ns")), "s"},
      {"store.write_s", per_pass(timer_s("store.write_ns")), "s"},
      {"store.bytes_written", per_pass(counter("store.bytes_written")), "bytes"},
      {"serve.queue_wait_ms_p50", quantile(traced.queue_ms, 0.5), "ms"},
      {"serve.run_ms_p50", quantile(traced.run_ms, 0.5), "ms"},
      {"serve.admit_rejected", per_pass(counter("serve.admit.rejected")), "count"},
  };
  for (const char* layer : kLayers) {
    const auto it = attr.self_s.find(layer);
    m.push_back({std::string("self.") + layer + "_s",
                 per_pass(it == attr.self_s.end() ? 0.0 : it->second), "s"});
  }
  double hot_serve_store = 0;
  for (const char* layer : {"serve", "store"}) {
    const auto it = attr.hot_self_s.find(layer);
    if (it != attr.hot_self_s.end()) hot_serve_store += it->second;
  }
  m.push_back({"self.hot_serve_store_frac", ratio(hot_serve_store, attr.hot_s), "frac"});
  m.push_back({"obs.trace_overhead_frac",
               ratio(quantile(traced.pass_s, 0.5), quantile(plain.pass_s, 0.5)) - 1,
               "frac"});
  return m;
}

void print_self_times(const Attribution& a, double timed_s, std::size_t passes) {
  double attributed = 0;
  for (const auto& [layer, s] : a.self_s) attributed += s;
  report("self-time per pass (span minus children), traced window:");
  for (const auto& [layer, s] : a.self_s) {
    const double per = s / static_cast<double>(passes);
    report("  " + layer + " " + num(per) + " s (" + num(100 * ratio(s, timed_s)) +
           "% of pass wall)");
  }
  report("  unattributed " + num((timed_s - attributed) / static_cast<double>(passes)) +
         " s (pass wall minus all self-times; threads overlap in serve_mixed)");
  if (a.hot_s > 0) {
    report("self-time share inside hot (store-hit) serve jobs:");
    for (const auto& [layer, s] : a.hot_self_s) {
      report("  " + layer + " " + num(100 * ratio(s, a.hot_s)) + "%");
    }
  }
}

int run_main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  pdf::runtime::set_global_threads(1);  // the paper pipeline runs sequentially
  std::unique_ptr<Workload> w = make(o);

  report("perfbench workload=" + o.workload + " seed=" + std::to_string(o.seed) +
         " seconds=" + num(o.seconds) + " trace=" + (o.trace ? "1" : "0"));
  report("fingerprint " + fingerprint().dump());

  // A set-up takes about a millisecond, far less than the phases (tens of ms)
  // over which a shared host's speed for this thread changes. Each sample is
  // therefore the mean over a burst of set-ups spanning several phases, and
  // setup_s is the median of the samples.
  std::vector<double> setups;
  for (int i = 0; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    double timed = 0;
    int count = 0;
    do {
      timed += w->setup();
      ++count;
    } while (seconds_since(t0) < kSetupBurstS);
    setups.push_back(timed / count);
  }

  Run plain;
  window(*w, plain, o.seconds, w->warm_up());
  std::vector<Metric> metrics;
  std::size_t attempted = plain.attempted;
  std::size_t failed = plain.failed;

  if (!o.trace) {
    // Before the checks: peak_rss_mb is the measuring window's, not theirs.
    metrics = end_to_end(plain, setups);
    w->finish(plain);
    failed = plain.failed;
    const std::vector<double> all = job_ms(plain, -1);
    const std::vector<double> hot = job_ms(plain, Run::Job::Hot);
    const std::vector<double> cold = job_ms(plain, Run::Job::Cold);
    report("passes " + std::to_string(plain.pass_s.size()) + ", jobs " +
           std::to_string(all.size()) + " (p90 has " +
           std::to_string(all.size() - static_cast<std::size_t>(
                                           std::ceil(0.9 * static_cast<double>(all.size())))) +
           " samples beyond it), setups " + std::to_string(setups.size()));
    for (const auto& [label, values] : {std::pair{"setups_s", &setups},
                                        std::pair{"passes_s", &plain.pass_s}}) {
      std::string line = label;
      for (double s : *values) {
        line += ' ';
        line += num(s);
      }
      report(line);
    }
    report("metric error_frac " +
           num(ratio(static_cast<double>(failed), static_cast<double>(attempted))) +
           " frac");
    if (!hot.empty()) {
      report("metric hot_job_p50_ms " + num(quantile(hot, 0.5)) + " ms (" +
             std::to_string(hot.size()) + " jobs)");
      report("metric cold_job_p50_ms " + num(quantile(cold, 0.5)) + " ms (" +
             std::to_string(cold.size()) + " jobs)");
    }
  } else {
    const Metrics::Snapshot before = Metrics::global().snapshot();
    TraceSession session;
    session.start(kTraceRing);
    Run traced;
    window(*w, traced, o.seconds, /*warm_up=*/false);  // warm already
    session.stop();
    const Metrics::Snapshot delta = Metrics::global().snapshot().delta_since(before);
    w->finish(traced);
    attempted += traced.attempted;
    failed += traced.failed;

    const auto events = session.events();
    const Attribution attr = attribute(events, traced.pass_ns);
    const std::string trace_file = o.out_dir + "/" + o.workload + ".trace.json";
    if (!session.write_chrome_json(trace_file)) {
      std::fprintf(stderr, "pdf_perfbench: cannot write %s\n", trace_file.c_str());
      return 1;
    }
    report("trace " + trace_file + " (" + std::to_string(events.size()) +
           " events, " + std::to_string(session.dropped()) + " dropped)");
    report("untraced wall_s " + num(quantile(plain.pass_s, 0.5)) + " s, traced wall_s " +
           num(quantile(traced.pass_s, 0.5)) + " s");
    print_self_times(attr, sum(traced.pass_s), traced.pass_s.size());
    metrics = per_layer(plain, traced, delta, attr);
  }

  for (const Metric& m : metrics) {
    report("metric " + m.name + " " + num(m.value) + " " + m.unit);
  }
  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  report(out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdf_perfbench: %s\n", e.what());
    return 1;
  }
}
