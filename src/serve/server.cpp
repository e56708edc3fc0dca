#include "serve/server.hpp"

#include <condition_variable>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/exposition.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/backend.hpp"

namespace pdf::serve {

namespace {

runtime::Metrics::Counter& cancelled_counter() {
  static auto& c =
      runtime::Metrics::global().counter("serve.jobs.cancelled");
  return c;
}

runtime::Metrics::Histogram& queue_hist() {
  static auto& h =
      runtime::Metrics::global().histogram("serve.latency.queue_ns");
  return h;
}

Response make_error(std::int64_t id, Status status, std::string kind,
                    std::string message) {
  Response r;
  r.id = id;
  r.status = status;
  r.error.kind = std::move(kind);
  r.error.message = std::move(message);
  return r;
}

const char* phase_name(int phase) {
  switch (phase) {
    case 0: return "queued";
    case 1: return "running";
    default: return "done";
  }
}

double hit_rate(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t total = hits + misses;
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)), queue_(cfg_.queue_depth) {
  if (cfg_.concurrency > runtime::kMaxThreads) {
    throw std::invalid_argument("serve: concurrency above runtime::kMaxThreads");
  }
  if (cfg_.concurrency == 0) cfg_.concurrency = 1;
  if (!cfg_.store_dir.empty()) cache_.emplace(cfg_.store_dir);
  ctx_.cache = cache_ ? &*cache_ : nullptr;
  ctx_.store_dir = cfg_.store_dir;
  ctx_.manifest_dir = cfg_.manifest_dir;
  workers_.reserve(cfg_.concurrency);
  for (std::size_t i = 0; i < cfg_.concurrency; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

Server::~Server() { drain(); }

void Server::submit(Request req, std::function<void(Response)> done) {
  switch (req.kind) {
    case RequestKind::Enrich:
    case RequestKind::Basic:
      break;
    case RequestKind::Cancel:
      done(cancel(req));
      return;
    case RequestKind::Shutdown: {
      Response r;
      r.id = req.id;
      r.result["draining"] = true;
      done(std::move(r));
      if (cfg_.shutdown_hook) cfg_.shutdown_hook();
      return;
    }
    default:
      done(control(req));
      return;
  }

  Job job;
  job.req = std::move(req);
  job.done = std::move(done);
  job.state = std::make_shared<JobState>();
  job.admitted = std::chrono::steady_clock::now();
  const std::int64_t id = job.req.id;
  job.state->id = id;
  job.state->kind = job.req.kind;
  job.state->circuit = job.req.circuit.empty() ? "inline" : job.req.circuit;
  job.state->admitted = job.admitted;
  {
    std::lock_guard<std::mutex> lk(active_mu_);
    job.serial = next_serial_++;
    job.state->serial = job.serial;
    active_.emplace(id, job.state);
  }
  const auto state = job.state;
  auto done_copy = job.done;  // try_push consumes the job on every path

  switch (queue_.try_push(std::move(job))) {
    case Admission::Accepted:
      PDF_LOG(Debug, "serve.job.admitted")
          .num("id", id)
          .num("serial", state->serial)
          .str("circuit", state->circuit);
      return;
    case Admission::Rejected: {
      Response r = make_error(id, Status::Rejected, "overload",
                              "queue full (depth " +
                                  std::to_string(queue_.capacity()) +
                                  "); retry after backoff");
      r.retry_after_ms = cfg_.retry_after_ms;
      PDF_LOG(Warn, "serve.admit.rejected")
          .num("id", id)
          .num("queue_capacity",
               static_cast<std::uint64_t>(queue_.capacity()))
          .num("retry_after_ms", cfg_.retry_after_ms);
      forget(id, state);
      done_copy(std::move(r));
      return;
    }
    case Admission::Closed: {
      PDF_LOG(Warn, "serve.admit.closed").num("id", id);
      forget(id, state);
      done_copy(make_error(id, Status::Rejected, "shutting_down",
                           "server is draining; not accepting new jobs"));
      return;
    }
  }
}

Response Server::call(Request req) {
  // Workers fire `done` asynchronously; rendezvous on a promise-like latch.
  std::mutex mu;
  std::condition_variable cv;
  std::optional<Response> out;
  submit(std::move(req), [&](Response r) {
    std::lock_guard<std::mutex> lk(mu);
    out = std::move(r);
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return out.has_value(); });
  return std::move(*out);
}

void Server::worker_main() {
  // Distinct per-worker slot: sim-backend scratch is keyed by worker_slot(),
  // and unscoped external threads all share slot 0 (see thread_pool.hpp).
  runtime::ExternalWorkerScope scope;
  while (auto popped = queue_.pop()) {
    Job job = std::move(*popped);
    const std::uint64_t queue_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - job.admitted)
            .count());
    queue_hist().record(queue_ns);

    bool cancelled = false;
    {
      std::lock_guard<std::mutex> lk(job.state->mu);
      cancelled = job.state->cancelled;
      job.state->phase = cancelled ? JobPhase::Done : JobPhase::Running;
    }
    if (cancelled) {
      cancelled_counter().add();
      PDF_LOG(Info, "serve.job.cancelled")
          .num("id", job.req.id)
          .num("serial", job.serial)
          .str("stage", "pre-run");
      Response r = make_error(job.req.id, Status::Cancelled, "cancelled",
                              "job cancelled before it started");
      r.queue_ns = queue_ns;
      finish(job, std::move(r));
      continue;
    }

    // Best-effort slow-job capture: one TraceSession may run process-wide,
    // so when another job (or an external --trace) already holds it this
    // job simply goes uncaptured. Spans from jobs running concurrently with
    // the captured one land in the same file — distinguishable by tid, and
    // the interference is itself diagnostic.
    std::unique_ptr<obs::TraceSession> capture;
    if (cfg_.slow_job_ms > 0) {
      capture = std::make_unique<obs::TraceSession>();
      if (!capture->start()) capture.reset();
    }

    Response r = run_job(job.req, ctx_, job.serial);
    r.queue_ns = queue_ns;

    if (capture) {
      capture->stop();
      if (r.run_ns > cfg_.slow_job_ms * 1'000'000) {
        static auto& slow =
            runtime::Metrics::global().counter("serve.jobs.slow");
        slow.add();
        const auto dir = cfg_.manifest_dir.empty()
                             ? std::filesystem::path(".")
                             : std::filesystem::path(cfg_.manifest_dir);
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);  // best-effort
        const std::string path =
            (dir / ("job-" + std::to_string(job.serial) + ".trace.json"))
                .string();
        const bool written = capture->write_chrome_json(path);
        PDF_LOG(Warn, "serve.job.slow")
            .num("id", job.req.id)
            .num("serial", job.serial)
            .str("circuit", job.state->circuit)
            .num("run_ns", r.run_ns)
            .num("threshold_ms", cfg_.slow_job_ms)
            .str("trace", written ? path : "(write failed)")
            .num("spans", static_cast<std::uint64_t>(
                              capture->events().size()));
      }
      capture.reset();
    }

    if (r.status == Status::Ok) {
      PDF_LOG(Debug, "serve.job.done")
          .num("id", job.req.id)
          .num("serial", job.serial)
          .str("circuit", job.state->circuit)
          .num("queue_ns", r.queue_ns)
          .num("run_ns", r.run_ns);
    } else {
      PDF_LOG(Error, "serve.job.failed")
          .num("id", job.req.id)
          .num("serial", job.serial)
          .str("circuit", job.state->circuit)
          .str("error_kind", r.error.kind)
          .str("error", r.error.message);
    }
    finish(job, std::move(r));
  }
}

void Server::finish(Job& job, Response resp) {
  {
    std::lock_guard<std::mutex> lk(job.state->mu);
    job.state->phase = JobPhase::Done;
  }
  forget(job.req.id, job.state);
  job.done(std::move(resp));
}

void Server::forget(std::int64_t id, const std::shared_ptr<JobState>& state) {
  std::lock_guard<std::mutex> lk(active_mu_);
  auto [it, end] = active_.equal_range(id);
  for (; it != end; ++it) {
    if (it->second == state) {
      active_.erase(it);
      return;
    }
  }
}

Response Server::cancel(const Request& req) {
  std::shared_ptr<JobState> state;
  {
    std::lock_guard<std::mutex> lk(active_mu_);
    auto it = active_.find(req.cancel_target);
    if (it != active_.end()) state = it->second;
  }
  Response r;
  r.id = req.id;
  if (!state) {
    r.result["cancelled"] = false;
    r.result["state"] = "unknown";
    return r;
  }
  {
    std::lock_guard<std::mutex> lk(state->mu);
    if (state->phase != JobPhase::Queued) {
      // Jobs are not interrupted mid-run; the engines run to completion.
      r.result["cancelled"] = false;
      r.result["state"] =
          state->phase == JobPhase::Running ? "running" : "done";
      return r;
    }
    state->cancelled = true;
  }
  // Pull it out of the queue if a worker hasn't claimed it yet; either way
  // its `done` gets a Cancelled response (here, or from the worker that
  // popped it concurrently and sees the flag).
  if (auto removed = queue_.remove_if(
          [&](const Job& j) { return j.state == state; })) {
    cancelled_counter().add();
    finish(*removed, make_error(removed->req.id, Status::Cancelled,
                                "cancelled",
                                "job cancelled while queued"));
  }
  PDF_LOG(Info, "serve.job.cancelled")
      .num("id", req.cancel_target)
      .num("serial", state->serial)
      .str("stage", "queued");
  r.result["cancelled"] = true;
  r.result["state"] = "queued";
  return r;
}

Response Server::control(const Request& req) {
  Response r;
  r.id = req.id;
  switch (req.kind) {
    case RequestKind::Ping:
      r.result["pong"] = true;
      r.result["protocol"] = kProtocolVersion;
      break;
    case RequestKind::Stats:
      r.result = stats();
      break;
    case RequestKind::Health:
      r.result = health();
      break;
    case RequestKind::Jobs:
      r.result = jobs();
      break;
    case RequestKind::Prom: {
      obs::Json p;
      p["schema"] = kAdminProtocolVersion;
      p["content_type"] = obs::kPrometheusContentType;
      p["text"] = prometheus();
      r.result = std::move(p);
      break;
    }
    default:
      return make_error(req.id, Status::Error, "internal",
                        "unroutable control request");
  }
  return r;
}

obs::Json Server::stats() const {
  auto& m = runtime::Metrics::global();
  obs::Json doc;
  doc["schema"] = kAdminProtocolVersion;
  doc["protocol"] = kProtocolVersion;
  doc["backend"] = sim::selected_backend().name();
  doc["concurrency"] = static_cast<std::int64_t>(cfg_.concurrency);
  doc["store_enabled"] = cache_.has_value();

  obs::Json queue;
  queue["depth"] = static_cast<std::int64_t>(queue_.depth());
  queue["capacity"] = static_cast<std::int64_t>(queue_.capacity());
  queue["closed"] = queue_.closed();
  doc["queue"] = std::move(queue);

  obs::Json admit;
  admit["accepted"] = m.counter("serve.admit.accepted").read();
  admit["rejected"] = m.counter("serve.admit.rejected").read();
  admit["closed"] = m.counter("serve.admit.closed").read();
  doc["admit"] = std::move(admit);

  obs::Json jobs;
  jobs["completed"] = m.counter("serve.jobs.completed").read();
  jobs["failed"] = m.counter("serve.jobs.failed").read();
  jobs["cancelled"] = m.counter("serve.jobs.cancelled").read();
  doc["jobs"] = std::move(jobs);

  obs::Json cache;
  cache["hits"] = m.counter("serve.cache.hits").read();
  cache["misses"] = m.counter("serve.cache.misses").read();
  doc["cache"] = std::move(cache);

  obs::Json latency;
  for (const char* name :
       {"serve.latency.queue_ns", "serve.latency.run_ns"}) {
    latency[name] = obs::histogram_json(m.histogram(name).snapshot());
  }
  doc["latency"] = std::move(latency);

  // The full registry (counters, timers, every histogram with
  // p50/p90/p99), rendered by the same code path as the run manifest.
  doc["metrics"] = obs::snapshot_json(m.snapshot());
  return doc;
}

std::size_t Server::inflight() const {
  std::lock_guard<std::mutex> lk(active_mu_);
  std::size_t n = 0;
  for (const auto& [id, state] : active_) {
    std::lock_guard<std::mutex> slk(state->mu);
    if (state->phase == JobPhase::Running) ++n;
  }
  return n;
}

obs::Json Server::health() const {
  auto& m = runtime::Metrics::global();
  const std::uint64_t hits = m.counter("store.hits").read();
  const std::uint64_t misses = m.counter("store.misses").read();

  obs::Json doc;
  doc["schema"] = kAdminProtocolVersion;
  doc["uptime_ms"] = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started_)
          .count());
  doc["draining"] = queue_.closed();
  doc["inflight"] = static_cast<std::int64_t>(inflight());

  obs::Json queue;
  queue["depth"] = static_cast<std::int64_t>(queue_.depth());
  queue["capacity"] = static_cast<std::int64_t>(queue_.capacity());
  doc["queue"] = std::move(queue);

  obs::Json cache;
  cache["enabled"] = cache_.has_value();
  cache["hits"] = hits;
  cache["misses"] = misses;
  cache["hit_rate"] = hit_rate(hits, misses);
  doc["cache"] = std::move(cache);
  return doc;
}

obs::Json Server::jobs() const {
  obs::Json list{obs::Json::Array{}};
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lk(active_mu_);
    for (const auto& [id, state] : active_) {
      obs::Json j;
      int phase;
      {
        std::lock_guard<std::mutex> slk(state->mu);
        phase = static_cast<int>(state->phase);
        j["cancelled"] = state->cancelled;
      }
      j["id"] = state->id;
      j["serial"] = state->serial;
      j["kind"] = kind_name(state->kind);
      j["circuit"] = state->circuit;
      j["phase"] = phase_name(phase);
      j["age_ms"] = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              now - state->admitted)
              .count());
      list.push_back(std::move(j));
    }
  }
  obs::Json doc;
  doc["schema"] = kAdminProtocolVersion;
  doc["jobs"] = std::move(list);
  return doc;
}

std::string Server::prometheus() const {
  auto& m = runtime::Metrics::global();
  const std::uint64_t hits = m.counter("store.hits").read();
  const std::uint64_t misses = m.counter("store.misses").read();
  const std::vector<obs::Gauge> gauges = {
      {"serve.uptime.seconds",
       std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                     started_)
           .count()},
      {"serve.queue.depth_now", static_cast<double>(queue_.depth())},
      {"serve.jobs.inflight", static_cast<double>(inflight())},
      {"serve.cache.hit_rate", hit_rate(hits, misses)},
  };
  return obs::prometheus_text(m.snapshot(), gauges);
}

void Server::drain() {
  std::call_once(drain_once_, [&] {
    PDF_LOG(Info, "serve.drain")
        .num("queued", static_cast<std::uint64_t>(queue_.depth()))
        .num("inflight", static_cast<std::uint64_t>(inflight()));
    queue_.close();
    for (auto& w : workers_) w.join();
    PDF_LOG(Info, "serve.drained");
  });
}

}  // namespace pdf::serve
