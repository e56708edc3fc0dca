// Measurement harness of the repository benchmark.
//
// A workload is a fixed unit of work (a "pass") over inputs derived from the
// workload seed. The harness times several set-ups, then repeats passes until
// the measuring window is used up, and turns what the passes recorded into
// the end-to-end metrics (untraced run) or the per-layer metrics (traced run).
// Everything here talks to the library through its public pdf:: headers only;
// layer attribution comes from spans this file opens around calls into the
// library plus the spans and counters the library already exports.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64 of (seed, stream): every input of a workload is a pure function
/// of the --seed argument and a fixed stream number.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  // Chrome traces and serve stores go here
};

/// Everything one measuring window records. Workloads add to it; the harness
/// derives the metrics. Times and counts are totals over the window.
struct Run {
  /// One client-visible unit of work: a serve request, or one whole pass of
  /// a batch workload (the table run a user waits for).
  struct Job {
    double ms = 0;
    enum Kind { Batch, Hot, Cold } kind = Batch;
  };
  std::vector<double> pass_s;
  std::vector<Job> jobs;
  std::size_t attempted = 0;  // operations whose output was checked
  std::size_t failed = 0;     // failed, refused or wrong outputs
  /// Output size and quality of the workload's first pass (every pass of a
  /// batch workload computes the same outputs).
  double test_count = 0;
  double p0_detected = 0, p0_total = 0;
  double union_detected = 0, union_total = 0;
  /// Per-layer seconds and counts, keyed by their metric name.
  std::map<std::string, double> tally;
  /// Serve envelope latencies (queue wait and run time), ms.
  std::vector<double> queue_ms, run_ms;
  /// Trace-clock intervals of the passes, to keep check work out of the
  /// self-time attribution.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pass_ns;

  void checked(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Times one call into a library layer: opens a trace span named after the
/// layer function (recorded only while a TraceSession runs) and, unless
/// `metric` is null, adds the wall time to `run.tally[metric]`.
class LayerCall {
 public:
  LayerCall(Run& run, const char* metric, const char* span)
      : acc_(metric != nullptr ? &run.tally[metric] : nullptr),
        span_(span),
        t0_(Clock::now()) {}
  ~LayerCall() {
    if (acc_ != nullptr) *acc_ += seconds_since(t0_);
  }
  LayerCall(const LayerCall&) = delete;
  LayerCall& operator=(const LayerCall&) = delete;

 private:
  double* acc_;
  pdf::obs::TraceSpan span_;
  Clock::time_point t0_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One complete set-up (netlists, simulators, servers). Called several
  /// times; the last one's state is what the passes use. Returns the seconds
  /// of its timed part (tear-down of the previous set-up is not counted).
  virtual double setup() = 0;
  /// One pass. Returns the seconds of its timed part; output checks run
  /// after that part and are not counted. Reports jobs, checks and layer
  /// tallies into `run`.
  virtual double pass(Run& run) = 0;
  /// True for workloads that model work repeated within one process (a
  /// grading sweep, a long-running server): their first pass only warms
  /// caches, lazy set-up and the allocator, and is not measured. A table run
  /// happens once per process, so the batch generation workloads measure
  /// from the first pass.
  virtual bool warm_up() const { return false; }
  /// Checks that run once after the measuring window (outside all timing).
  virtual void finish(Run& run) { (void)run; }
};

std::unique_ptr<Workload> make_enrich_p0p1(const Options& o);
std::unique_ptr<Workload> make_basic_p0(const Options& o);
std::unique_ptr<Workload> make_grade_random(const Options& o);
std::unique_ptr<Workload> make_serve_mixed(const Options& o);

/// Lines of the human-readable report that precede the result JSON.
void report(const std::string& line);

}  // namespace perfbench
