// serve subsystem tests: protocol round-trips, run_job determinism and
// warm-cache byte-identity, Server admission control / backpressure,
// cancellation, graceful drain, the pdf.admin/1 telemetry plane (stats /
// health / jobs / prom answered live without perturbing result bytes,
// slow-job trace capture), and per-request run-manifest emission under
// concurrent sessions.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "obs/json.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "serve/request_queue.hpp"
#include "serve/server.hpp"
#include "sim/backend.hpp"

namespace pdf {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "pdf-serve-XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

serve::Request small_job(std::int64_t id, std::uint64_t seed = 1,
                         std::size_t np = 60) {
  serve::Request req;
  req.id = id;
  req.kind = serve::RequestKind::Enrich;
  req.circuit = "s27";
  req.target.n_p = np;
  req.target.n_p0 = np / 5;
  req.gen.seed = seed;
  return req;
}

/// Collects asynchronous responses and lets tests wait for N of them.
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<serve::Response> responses;

  std::function<void(serve::Response)> sink() {
    return [this](serve::Response r) {
      std::lock_guard<std::mutex> lk(mu);
      responses.push_back(std::move(r));
      cv.notify_all();
    };
  }
  std::vector<serve::Response> wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return responses.size() >= n; });
    return responses;
  }
};

/// Blocks waiters until open() lets them through.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool is_open = false;

  void wait() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return is_open; });
  }
  void open() {
    {
      std::lock_guard<std::mutex> lk(mu);
      is_open = true;
    }
    cv.notify_all();
  }
};

// ---- protocol ---------------------------------------------------------------

TEST(ServeProtocolTest, RequestRoundTripsThroughJson) {
  serve::Request req = small_job(7, 42);
  req.kind = serve::RequestKind::Basic;
  req.gen.heuristic = CompactionHeuristic::Length;
  req.want_manifest = true;
  req.want_tests = true;

  const serve::Request back =
      serve::parse_request(serve::request_json(req).dump());
  EXPECT_EQ(back.id, 7);
  EXPECT_EQ(back.kind, serve::RequestKind::Basic);
  EXPECT_EQ(back.circuit, "s27");
  EXPECT_EQ(back.target.n_p, req.target.n_p);
  EXPECT_EQ(back.target.n_p0, req.target.n_p0);
  EXPECT_EQ(back.gen.seed, 42u);
  EXPECT_EQ(back.gen.heuristic, CompactionHeuristic::Length);
  EXPECT_TRUE(back.want_manifest);
  EXPECT_TRUE(back.want_tests);
}

TEST(ServeProtocolTest, ResponseRoundTripsThroughWireFormat) {
  serve::Response resp;
  resp.id = 9;
  resp.status = serve::Status::Rejected;
  resp.error = {"overload", "queue full", -1};
  resp.retry_after_ms = 25;
  resp.cache_hits = 3;
  resp.cache_misses = 1;
  resp.queue_ns = 123;
  resp.run_ns = 456;

  const serve::Response back = serve::parse_response(resp.to_line());
  EXPECT_EQ(back.id, 9);
  EXPECT_EQ(back.status, serve::Status::Rejected);
  EXPECT_EQ(back.error.kind, "overload");
  EXPECT_EQ(back.retry_after_ms, 25u);
  EXPECT_EQ(back.cache_hits, 3u);
  EXPECT_EQ(back.cache_misses, 1u);
  EXPECT_EQ(back.queue_ns, 123u);
  EXPECT_EQ(back.run_ns, 456u);
}

TEST(ServeProtocolTest, SalvageRecoversIdsFromBrokenLines) {
  using serve::salvage_request_id;
  // Valid JSON that merely fails request validation.
  EXPECT_EQ(salvage_request_id(R"({"id":42,"kind":"frobnicate"})"), 42);
  // Syntactically broken JSON still yields the id lexically.
  EXPECT_EQ(salvage_request_id(R"({"id":10,"kind":"enrich","bench":"garb)"), 10);
  EXPECT_EQ(salvage_request_id(R"({"kind":"x", "id" : -7, "np":)"), -7);
  // Nothing recoverable -> 0.
  EXPECT_EQ(salvage_request_id("not json at all"), 0);
  EXPECT_EQ(salvage_request_id(R"({"id":"not-a-number"})"), 0);
  EXPECT_EQ(salvage_request_id(R"({"id": })"), 0);
}

TEST(ServeProtocolTest, ParseRequestValidates) {
  using serve::parse_request;
  EXPECT_THROW(parse_request("not json"), obs::JsonError);
  EXPECT_THROW(parse_request("[1,2]"), obs::JsonError);
  // Job without a netlist, or with both forms at once.
  EXPECT_THROW(parse_request(R"({"id":1,"kind":"enrich"})"), ConfigError);
  EXPECT_THROW(
      parse_request(
          R"x({"id":1,"kind":"enrich","circuit":"s27","bench":"INPUT(a)"})x"),
      ConfigError);
  EXPECT_THROW(
      parse_request(R"({"id":1,"kind":"enrich","circuit":"s27","np":0})"),
      ConfigError);
  // np0 > np is the classic inverted-budget config error.
  EXPECT_THROW(
      parse_request(
          R"({"id":1,"kind":"enrich","circuit":"s27","np":10,"np0":20})"),
      ConfigError);
  EXPECT_THROW(
      parse_request(R"({"id":1,"kind":"enrich","circuit":"s27","np":-5})"),
      ConfigError);
  EXPECT_THROW(parse_request(R"({"id":1,"kind":"frobnicate"})"), ConfigError);
  EXPECT_THROW(
      parse_request(
          R"({"id":1,"kind":"enrich","circuit":"s27","heuristic":"magic"})"),
      ConfigError);
  EXPECT_THROW(parse_request(R"({"id":1,"kind":"cancel"})"), ConfigError);
  EXPECT_EQ(serve::salvage_request_id(R"({"id":33,"kind":"frobnicate"})"), 33);
  EXPECT_EQ(serve::salvage_request_id("not json"), 0);
}

// ---- request queue ----------------------------------------------------------

TEST(RequestQueueTest, AdmissionControlAndDrain) {
  serve::RequestQueue<int> q(2);
  EXPECT_EQ(q.try_push(1), serve::Admission::Accepted);
  EXPECT_EQ(q.try_push(2), serve::Admission::Accepted);
  EXPECT_EQ(q.try_push(3), serve::Admission::Rejected);
  EXPECT_EQ(q.depth(), 2u);

  // remove_if pulls a queued item (cancellation path).
  const auto removed = q.remove_if([](int v) { return v == 1; });
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(*removed, 1);

  q.close();
  EXPECT_EQ(q.try_push(4), serve::Admission::Closed);
  // Closed but non-empty: pop keeps draining...
  const auto a = q.pop();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 2);
  // ...and only then reports exhaustion.
  EXPECT_FALSE(q.pop().has_value());
}

// ---- run_job ----------------------------------------------------------------

TEST(ServeJobTest, WarmCacheResultIsByteIdenticalToCold) {
  TempDir dir;
  store::StageCache cache(dir.path);
  serve::JobContext cached{&cache, dir.path.string(), ""};
  const serve::JobContext uncached{};

  const serve::Request req = small_job(1);
  const serve::Response plain = serve::run_job(req, uncached);
  const serve::Response cold = serve::run_job(req, cached);
  const serve::Response warm = serve::run_job(req, cached);

  ASSERT_EQ(plain.status, serve::Status::Ok);
  ASSERT_EQ(cold.status, serve::Status::Ok);
  ASSERT_EQ(warm.status, serve::Status::Ok);
  // The determinism contract: result bytes identical across no-cache, cold
  // and warm runs; telemetry (latency, cache deltas) lives outside `result`.
  EXPECT_EQ(plain.result.dump(), cold.result.dump());
  EXPECT_EQ(cold.result.dump(), warm.result.dump());
  EXPECT_GT(cold.cache_misses, 0u);
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_EQ(warm.cache_misses, 0u);
}

TEST(ServeJobTest, InlineBenchAndFailureTaxonomy) {
  const serve::JobContext ctx{};

  serve::Request inline_req;
  inline_req.id = 5;
  inline_req.bench_text =
      "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n";
  inline_req.target.n_p = 10;
  inline_req.target.n_p0 = 2;
  const serve::Response ok = serve::run_job(inline_req, ctx);
  ASSERT_EQ(ok.status, serve::Status::Ok);
  EXPECT_EQ(ok.result.at("circuit").as_string().rfind("inline:", 0), 0u);
  EXPECT_GT(ok.result.at("test_count").as_int(), 0);

  serve::Request bad_bench = inline_req;
  bad_bench.bench_text = "INPUT(a)\nz = FROB(a)\n";
  const serve::Response parse_err = serve::run_job(bad_bench, ctx);
  EXPECT_EQ(parse_err.status, serve::Status::Error);
  EXPECT_EQ(parse_err.error.kind, "parse_error");
  EXPECT_EQ(parse_err.error.line, 2);

  serve::Request unknown = small_job(6);
  unknown.circuit = "no_such_circuit";
  const serve::Response cfg_err = serve::run_job(unknown, ctx);
  EXPECT_EQ(cfg_err.status, serve::Status::Error);
  EXPECT_EQ(cfg_err.error.kind, "config_error");
}

TEST(ServeJobTest, WantTestsAttachesPatterns) {
  const serve::JobContext ctx{};
  serve::Request req = small_job(2);
  req.want_tests = true;
  const serve::Response resp = serve::run_job(req, ctx);
  ASSERT_EQ(resp.status, serve::Status::Ok);
  const auto& tests = resp.result.at("tests").as_array();
  EXPECT_EQ(static_cast<std::int64_t>(tests.size()),
            resp.result.at("test_count").as_int());
  for (const auto& t : tests) {
    EXPECT_NE(t.as_string().find('/'), std::string::npos);
  }
}

// ---- server -----------------------------------------------------------------

TEST(ServeServerTest, ConcurrentJobsMatchDirectExecution) {
  TempDir dir;
  serve::ServerConfig cfg;
  cfg.concurrency = 4;
  cfg.queue_depth = 32;
  cfg.store_dir = dir.path.string();
  serve::Server server(cfg);

  Collector collector;
  constexpr int kJobs = 12;
  for (int i = 0; i < kJobs; ++i) {
    // Three distinct seeds: repeats exercise the shared warm tier while the
    // first run of each seed is cold — all concurrently.
    server.submit(small_job(i + 1, 1 + static_cast<std::uint64_t>(i % 3)),
                  collector.sink());
  }
  const auto responses = collector.wait_for(kJobs);

  const serve::JobContext uncached{};
  std::set<std::int64_t> ids;
  for (const auto& resp : responses) {
    ASSERT_EQ(resp.status, serve::Status::Ok) << resp.error.message;
    ids.insert(resp.id);
    const serve::Request ref =
        small_job(resp.id, 1 + static_cast<std::uint64_t>((resp.id - 1) % 3));
    EXPECT_EQ(resp.result.dump(),
              serve::run_job(ref, uncached).result.dump());
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kJobs));

  const serve::Response pong =
      server.call([] { serve::Request r; r.kind = serve::RequestKind::Ping;
                       r.id = 99; return r; }());
  EXPECT_EQ(pong.status, serve::Status::Ok);
  EXPECT_TRUE(pong.result.at("pong").as_bool());
  const serve::Response stats =
      server.call([] { serve::Request r; r.kind = serve::RequestKind::Stats;
                       return r; }());
  EXPECT_GE(stats.result.at("jobs").at("completed").as_int(), kJobs);
}

TEST(ServeServerTest, QueueOverflowRejectsWithRetryHint) {
  serve::ServerConfig cfg;
  cfg.concurrency = 1;
  cfg.queue_depth = 1;
  cfg.retry_after_ms = 17;
  serve::Server server(cfg);

  Collector collector;
  // Burst of jobs into a single slow worker with a one-deep queue: at most
  // one runs and one queues; the rest must be rejected immediately (the
  // admission path never blocks), not stall the submitter.
  constexpr int kBurst = 6;
  for (int i = 0; i < kBurst; ++i) {
    server.submit(small_job(i + 1, 100 + static_cast<std::uint64_t>(i), 400),
                  collector.sink());
  }
  const auto responses = collector.wait_for(kBurst);

  int ok = 0, rejected = 0;
  for (const auto& resp : responses) {
    if (resp.status == serve::Status::Ok) {
      ++ok;
    } else {
      ASSERT_EQ(resp.status, serve::Status::Rejected);
      EXPECT_EQ(resp.error.kind, "overload");
      EXPECT_EQ(resp.retry_after_ms, 17u);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(ok, 0);
  EXPECT_EQ(ok + rejected, kBurst);
}

TEST(ServeServerTest, RejectsConcurrencyAboveLimitBeforeStartingWorkers) {
  for (const std::size_t n : {runtime::kMaxThreads + 1, SIZE_MAX}) {
    serve::ServerConfig cfg;
    cfg.concurrency = n;
    EXPECT_THROW({ serve::Server server(cfg); }, std::invalid_argument) << n;
  }
}

TEST(ServeServerTest, CancelQueuedJob) {
  serve::ServerConfig cfg;
  cfg.concurrency = 1;
  cfg.queue_depth = 8;
  serve::Server server(cfg);

  Collector collector;
  // Occupy the single worker, then park a job in the queue and cancel it.
  server.submit(small_job(1, 7, 800), collector.sink());
  server.submit(small_job(42, 8, 800), collector.sink());

  serve::Request cancel;
  cancel.kind = serve::RequestKind::Cancel;
  cancel.id = 2;
  cancel.cancel_target = 42;
  const serve::Response ack = server.call(std::move(cancel));
  ASSERT_EQ(ack.status, serve::Status::Ok);

  const auto responses = collector.wait_for(2);
  const auto& job42 = responses[0].id == 42 ? responses[0] : responses[1];
  if (ack.result.at("cancelled").as_bool()) {
    EXPECT_EQ(job42.status, serve::Status::Cancelled);
    EXPECT_EQ(job42.error.kind, "cancelled");
  } else {
    // The worker won the race and ran it; it must then have completed.
    EXPECT_EQ(job42.status, serve::Status::Ok);
  }
  // Cancelling an unknown id is a no-op, not an error.
  serve::Request missing;
  missing.kind = serve::RequestKind::Cancel;
  missing.cancel_target = 4711;
  const serve::Response nack = server.call(std::move(missing));
  ASSERT_EQ(nack.status, serve::Status::Ok);
  EXPECT_FALSE(nack.result.at("cancelled").as_bool());
}

TEST(ServeServerTest, DrainCompletesAdmittedJobsThenRejects) {
  serve::ServerConfig cfg;
  cfg.concurrency = 2;
  cfg.queue_depth = 16;
  serve::Server server(cfg);

  Collector collector;
  constexpr int kJobs = 6;
  for (int i = 0; i < kJobs; ++i) {
    server.submit(small_job(i + 1, 200 + static_cast<std::uint64_t>(i)),
                  collector.sink());
  }
  server.drain();  // blocks until every admitted job has responded

  const auto responses = collector.wait_for(kJobs);
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kJobs));
  for (const auto& resp : responses) {
    EXPECT_EQ(resp.status, serve::Status::Ok) << resp.error.message;
  }

  // Post-drain submissions are turned away as shutting_down.
  Collector late;
  server.submit(small_job(100), late.sink());
  const auto rejected = late.wait_for(1);
  EXPECT_EQ(rejected[0].status, serve::Status::Rejected);
  EXPECT_EQ(rejected[0].error.kind, "shutting_down");
  EXPECT_TRUE(server.draining());
}

// ---- pdf.admin/1 telemetry plane -------------------------------------------

serve::Request admin_request(serve::RequestKind kind, std::int64_t id) {
  serve::Request r;
  r.kind = kind;
  r.id = id;
  return r;
}

// The determinism contract: admin queries answered concurrently with job
// execution must leave every job's `result` byte-identical to a direct,
// uncached, unobserved run.
TEST(ServeServerTest, AdminQueriesDoNotPerturbResultBytes) {
  TempDir dir;
  serve::ServerConfig cfg;
  cfg.concurrency = 4;
  cfg.queue_depth = 32;
  cfg.store_dir = dir.path.string();
  serve::Server server(cfg);

  Collector collector;
  constexpr int kJobs = 10;
  std::atomic<bool> stop{false};
  // Hammer the admin surface from a separate thread while jobs run.
  std::thread admin([&] {
    std::int64_t id = 1000;
    while (!stop.load(std::memory_order_acquire)) {
      for (const serve::RequestKind kind :
           {serve::RequestKind::Stats, serve::RequestKind::Health,
            serve::RequestKind::Jobs, serve::RequestKind::Prom}) {
        const serve::Response r = server.call(admin_request(kind, ++id));
        EXPECT_EQ(r.status, serve::Status::Ok);
        EXPECT_EQ(r.result.at("schema").as_string(), "pdf.admin/1");
      }
    }
  });
  for (int i = 0; i < kJobs; ++i) {
    server.submit(small_job(i + 1, 1 + static_cast<std::uint64_t>(i % 3)),
                  collector.sink());
  }
  const auto responses = collector.wait_for(kJobs);
  stop.store(true, std::memory_order_release);
  admin.join();

  const serve::JobContext uncached{};
  for (const auto& resp : responses) {
    ASSERT_EQ(resp.status, serve::Status::Ok) << resp.error.message;
    const serve::Request ref =
        small_job(resp.id, 1 + static_cast<std::uint64_t>((resp.id - 1) % 3));
    EXPECT_EQ(resp.result.dump(), serve::run_job(ref, uncached).result.dump());
  }
}

TEST(ServeServerTest, HealthAndJobsReportLiveState) {
  // Job 1's completion callback runs on the single worker and blocks until
  // the admin queries are done, so job 2 is still queued when they run,
  // however fast the jobs themselves are.
  Collector collector;
  Gate gate;
  serve::ServerConfig cfg;
  cfg.concurrency = 1;
  cfg.queue_depth = 8;
  serve::Server server(cfg);
  // However the test exits, the gate opens before the server drains.
  const std::unique_ptr<Gate, void (*)(Gate*)> release(
      &gate, [](Gate* g) { g->open(); });

  const auto collect = collector.sink();
  server.submit(small_job(1, 7, 800), [&](serve::Response r) {
    gate.wait();
    collect(std::move(r));
  });
  server.submit(small_job(2, 8, 800), collector.sink());

  const serve::Response health =
      server.call(admin_request(serve::RequestKind::Health, 100));
  ASSERT_EQ(health.status, serve::Status::Ok);
  EXPECT_EQ(health.result.at("schema").as_string(), "pdf.admin/1");
  EXPECT_GE(health.result.at("uptime_ms").as_int(), 0);
  EXPECT_FALSE(health.result.at("draining").as_bool());
  EXPECT_EQ(health.result.at("queue").at("capacity").as_int(), 8);
  EXPECT_GE(health.result.at("inflight").as_int(), 0);
  EXPECT_FALSE(health.result.at("cache").at("enabled").as_bool());

  const serve::Response jobs =
      server.call(admin_request(serve::RequestKind::Jobs, 101));
  ASSERT_EQ(jobs.status, serve::Status::Ok);
  const auto& list = jobs.result.at("jobs").as_array();
  bool job2_queued = false;
  for (const auto& j : list) {
    EXPECT_GT(j.at("id").as_int(), 0);
    EXPECT_EQ(j.at("kind").as_string(), "enrich");
    EXPECT_EQ(j.at("circuit").as_string(), "s27");
    const std::string phase = j.at("phase").as_string();
    EXPECT_TRUE(phase == "queued" || phase == "running" || phase == "done")
        << phase;
    EXPECT_GE(j.at("age_ms").as_int(), 0);
    EXPECT_FALSE(j.at("cancelled").as_bool());
    job2_queued |= j.at("id").as_int() == 2 && phase == "queued";
  }
  EXPECT_TRUE(job2_queued);

  const serve::Response prom =
      server.call(admin_request(serve::RequestKind::Prom, 102));
  ASSERT_EQ(prom.status, serve::Status::Ok);
  EXPECT_EQ(prom.result.at("content_type").as_string(),
            "text/plain; version=0.0.4");
  const std::string text = prom.result.at("text").as_string();
  EXPECT_NE(text.find("# TYPE pdf_serve_jobs_inflight gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pdf_serve_uptime_seconds gauge"),
            std::string::npos);

  gate.open();
  collector.wait_for(2);
  server.drain();
  const serve::Response drained =
      server.call(admin_request(serve::RequestKind::Health, 103));
  EXPECT_TRUE(drained.result.at("draining").as_bool());
}

TEST(ServeServerTest, SlowJobThresholdCapturesChromeTrace) {
  TempDir manifest_dir;
  serve::ServerConfig cfg;
  cfg.concurrency = 1;
  cfg.queue_depth = 4;
  cfg.manifest_dir = manifest_dir.path.string();
  cfg.slow_job_ms = 1;
  serve::Server server(cfg);

  // The job's manifest path is a FIFO: its write, inside the job's timed
  // run, blocks until this thread opens the read end. That happens at least
  // 5 ms after generation has visibly started, so the job runs longer than
  // the 1 ms threshold however fast ATPG is.
  const fs::path manifest = manifest_dir.path / "job-1.json";
  ASSERT_EQ(::mkfifo(manifest.c_str(), 0600), 0);
  const auto& generated = runtime::Metrics::global().timer("atpg.generate");
  const std::uint64_t generated_before = generated.calls();

  Collector collector;
  server.submit(small_job(1, 9, 800), collector.sink());
  while (generated.calls() == generated_before) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::ifstream manifest_in(manifest);  // releases the job's manifest write
  std::stringstream manifest_text;
  manifest_text << manifest_in.rdbuf();
  EXPECT_EQ(obs::Json::parse(manifest_text.str()).at("schema").as_string(),
            "pdf.run_manifest/1");
  const auto responses = collector.wait_for(1);
  ASSERT_EQ(responses[0].status, serve::Status::Ok)
      << responses[0].error.message;
  EXPECT_GE(responses[0].run_ns, 5'000'000u);
  server.drain();

  std::vector<fs::path> traces;
  for (const auto& entry : fs::directory_iterator(manifest_dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 11 &&
        name.compare(name.size() - 11, 11, ".trace.json") == 0) {
      traces.push_back(entry.path());
    }
  }
  ASSERT_EQ(traces.size(), 1u);
  std::ifstream in(traces[0]);
  std::stringstream buf;
  buf << in.rdbuf();
  const obs::Json doc = obs::Json::parse(buf.str());
  ASSERT_TRUE(doc.contains("traceEvents"));
  EXPECT_GT(doc.at("traceEvents").as_array().size(), 0u);

  const serve::Response stats =
      server.call(admin_request(serve::RequestKind::Stats, 50));
  EXPECT_GE(stats.result.at("metrics")
                .at("counters")
                .at("serve.jobs.slow")
                .as_int(),
            1);
}

// ---- per-request manifests under concurrency (satellite: run manifests) ----

TEST(ServeServerTest, ConcurrentSessionsEmitOneManifestPerRequest) {
  TempDir store_dir;
  TempDir manifest_dir;
  serve::ServerConfig cfg;
  cfg.concurrency = 4;
  cfg.queue_depth = 32;
  cfg.store_dir = store_dir.path.string();
  cfg.manifest_dir = manifest_dir.path.string();
  serve::Server server(cfg);

  Collector collector;
  constexpr int kJobs = 8;
  for (int i = 0; i < kJobs; ++i) {
    serve::Request req = small_job(i + 1, 300 + static_cast<std::uint64_t>(i));
    req.want_manifest = true;
    server.submit(std::move(req), collector.sink());
  }
  const auto responses = collector.wait_for(kJobs);

  // Manifests label every job with the host's default backend.
  const std::string backend = sim::selected_backend().name();
  for (const auto& resp : responses) {
    ASSERT_EQ(resp.status, serve::Status::Ok) << resp.error.message;
    // The inline manifest is present and carries the backend label.
    ASSERT_FALSE(resp.manifest.is_null());
    EXPECT_EQ(resp.manifest.at("schema").as_string(), "pdf.run_manifest/1");
    EXPECT_EQ(resp.manifest.at("params").at("backend").as_string(), backend);
  }

  // Exactly one manifest file per request, each a complete JSON document —
  // concurrent sessions must not interleave or drop writes.
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(manifest_dir.path)) {
    files.push_back(entry.path());
  }
  ASSERT_EQ(files.size(), static_cast<std::size_t>(kJobs));
  std::set<std::string> names;
  for (const auto& f : files) {
    names.insert(f.filename().string());
    std::ifstream in(f);
    std::stringstream buf;
    buf << in.rdbuf();
    const obs::Json doc = obs::Json::parse(buf.str());  // throws if torn
    EXPECT_EQ(doc.at("schema").as_string(), "pdf.run_manifest/1");
    EXPECT_EQ(doc.at("params").at("backend").as_string(), backend);
    EXPECT_EQ(doc.at("bench").as_string(), "pdf_serve");
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kJobs));
}

}  // namespace
}  // namespace pdf
