// The in-process enrichment server: admission-controlled queue + worker
// threads + shared StageCache warm tier.
//
// Transport-agnostic on purpose: the pdf_serve daemon feeds it requests
// parsed off a Unix socket, the tests and the micro_engines serve mode feed
// it directly. submit() never blocks — a full queue turns into an immediate
// Rejected response with a retry_after_ms hint, and after drain() begins new
// submissions are rejected as shutting_down while already-admitted jobs run
// to completion (the SIGTERM contract).
//
// Each worker thread holds a runtime::ExternalWorkerScope for its lifetime:
// the sim backends keep PerWorker scratch keyed by worker_slot(), and
// without a scope every external thread would map to slot 0 and race on the
// shared scratch. The scope gives each worker its own slot, so concurrent
// jobs are as isolated as pool workers are.
//
// Metrics (runtime registry): serve.admit.{accepted,rejected,closed},
// serve.queue.depth, serve.jobs.{completed,failed,cancelled,slow},
// serve.latency.{queue_ns,run_ns} histograms, serve.cache.{hits,misses}.
//
// The pdf.admin/1 family (stats/health/jobs/prom) is answered synchronously
// by the submitting thread from registry snapshots and the JobState map —
// admin reads never enqueue, never run on a worker, and never write a
// metric a job reads, so polling them cannot perturb job `result` bytes.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "serve/request_queue.hpp"
#include "store/stage_cache.hpp"

namespace pdf::serve {

struct ServerConfig {
  std::size_t concurrency = 2;   // worker threads, at most runtime::kMaxThreads
  std::size_t queue_depth = 64;  // queued (not yet running) job bound
  std::uint64_t retry_after_ms = 50;  // backoff hint on admission reject
  /// Artifact-store root; empty = caching disabled.
  std::string store_dir;
  /// Per-request manifest output directory; empty = none.
  std::string manifest_dir;
  /// Invoked (on the submitting thread) when a shutdown request arrives, so
  /// the daemon can kick its own graceful-exit path. May be empty.
  std::function<void()> shutdown_hook;
  /// Jobs whose run time exceeds this threshold get their span tree dumped
  /// as `job-<serial>.trace.json` next to the manifests (cwd when
  /// manifest_dir is empty). 0 disables capture.
  std::uint64_t slow_job_ms = 0;
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  /// Drains (see drain()) before destruction.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Handles any request kind. Job kinds go through admission control:
  /// accepted jobs complete asynchronously and `done` fires on a worker
  /// thread; rejections and control kinds invoke `done` synchronously on
  /// this thread. `done` is invoked exactly once either way.
  void submit(Request req, std::function<void(Response)> done);

  /// Synchronous convenience wrapper around submit() (tests, --once).
  Response call(Request req);

  /// Graceful shutdown: closes admissions, lets queued and running jobs
  /// finish (their `done` callbacks fire), joins the workers. Idempotent;
  /// must not be called from a worker (i.e. from inside a `done` callback).
  void drain();

  bool draining() const { return queue_.closed(); }
  std::size_t queue_depth() const { return queue_.depth(); }
  const JobContext& context() const { return ctx_; }

  /// pdf.admin/1 payloads. All are cheap, synchronous, read-only views;
  /// submit() routes the matching request kinds here.
  obs::Json stats() const;   // full metrics snapshot with p50/p90/p99
  obs::Json health() const;  // uptime, queue depth, in-flight, hit rate
  obs::Json jobs() const;    // JobState registry listing
  std::string prometheus() const;  // text exposition (obs/exposition.hpp)

 private:
  enum class JobPhase { Queued, Running, Done };
  struct JobState {
    std::mutex mu;
    JobPhase phase = JobPhase::Queued;
    bool cancelled = false;
    // Identity for the `jobs` admin listing; immutable after submit().
    std::int64_t id = 0;
    std::uint64_t serial = 0;
    RequestKind kind = RequestKind::Enrich;
    std::string circuit;  // registry name, or "inline" for bench text
    std::chrono::steady_clock::time_point admitted;
  };
  struct Job {
    Request req;
    std::function<void(Response)> done;
    std::shared_ptr<JobState> state;
    std::uint64_t serial = 0;
    std::chrono::steady_clock::time_point admitted;
  };

  void worker_main();
  void finish(Job& job, Response resp);
  void forget(std::int64_t id, const std::shared_ptr<JobState>& state);
  Response control(const Request& req);
  Response cancel(const Request& req);
  std::size_t inflight() const;  // active jobs in phase Running

  ServerConfig cfg_;
  const std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
  std::optional<store::StageCache> cache_;
  JobContext ctx_;
  RequestQueue<Job> queue_;

  // Queued/running jobs by request id, for cancellation. Entries are erased
  // when the job finishes; duplicate client ids shadow (first match wins).
  mutable std::mutex active_mu_;
  std::multimap<std::int64_t, std::shared_ptr<JobState>> active_;

  std::uint64_t next_serial_ = 1;  // guarded by active_mu_
  std::once_flag drain_once_;
  std::vector<std::thread> workers_;
};

}  // namespace pdf::serve
