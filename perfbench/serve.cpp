// serve_mixed: an in-process serve::Server (two workers, a fresh empty
// artifact store per run) driven by two closed-loop client threads that send
// pdf.serve/1 request lines. Each pass mixes cold jobs (distinct seeds, so
// every stage misses the store and is computed and written) with hot jobs
// (a few repeated (circuit, seed) keys, warmed before the measuring window, so
// every stage is a store read). It is the only workload that measures the
// serve and store layers.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/rng.hpp"
#include "harness.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using namespace pdf;

constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
// 80% hot, not pdf_load's default 50%: hot jobs take about 1 ms and cold ones
// about 300 ms, so at 50% the p50 is the slowest hot job, a tail value that
// spread 127% over four seeds. At 80% the p50 is the median hot job and the
// p90 the median cold job. As in pdf_load, each circuit has one hot key.
constexpr std::size_t kColdPerCircuit = 2;  // per pass
constexpr std::size_t kHotPerCircuit = 8;   // per pass
const std::vector<std::string> kCircuits = {"s953_like", "s1196_like",
                                            "b09_like"};

/// The job's identity without its id: equal keys must give equal results.
std::string request_key(const std::string& circuit, std::uint64_t seed) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "\"kind\":\"enrich\",\"circuit\":\"%s\",\"np\":1000,"
                "\"np0\":100,\"seed\":%llu}",
                circuit.c_str(), static_cast<unsigned long long>(seed));
  return buf;
}

std::string request_line(std::int64_t id, const std::string& key) {
  return "{\"id\":" + std::to_string(id) + "," + key;
}

/// Seeds stay below 2^31 so they are plain JSON integers.
std::uint64_t job_seed(std::uint64_t seed, std::uint64_t stream) {
  return derive_seed(seed, stream) & 0x7fffffffULL;
}

class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(const Options& o)
      : seed_(o.seed),
        store_dir_(std::filesystem::path(o.out_dir) /
                   ("serve-store-" + std::to_string(::getpid()))) {
    for (std::size_t c = 0; c < kCircuits.size(); ++c) {
      hot_keys_.push_back(request_key(kCircuits[c], job_seed(seed_, 200 + c)));
    }
    std::filesystem::remove_all(store_dir_);
    std::filesystem::create_directories(store_dir_);
  }

  ~ServeMixed() override {
    server_.reset();
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
  }

  double setup() override {
    server_.reset();  // drains and joins the previous server's workers

    // Jobs materialize their own netlists, so set-up is the server alone.
    serve::ServerConfig cfg;
    cfg.concurrency = kWorkers;
    cfg.store_dir = store_dir_.string();
    const auto t0 = Clock::now();
    server_ = std::make_unique<serve::Server>(cfg);
    return seconds_since(t0);
  }

  bool warm_up() const override { return true; }

  double pass(Run& run) override {
    if (!warmed_) {  // untimed: put the hot keys into the store
      for (const auto& key : hot_keys_) {
        const serve::Response r =
            server_->call(serve::parse_request(request_line(next_id_++, key)));
        run.checked(r.status == serve::Status::Ok);
      }
      warmed_ = true;
    }

    struct Job {
      std::string key;
      bool hot = false;
      serve::Response resp;
      double ms = 0;
    };
    std::vector<Job> jobs;
    for (std::size_t c = 0; c < kCircuits.size(); ++c) {
      for (std::size_t j = 0; j < kColdPerCircuit; ++j) {
        const std::uint64_t stream =
            1000 + (passes_ * kCircuits.size() + c) * kColdPerCircuit + j;
        jobs.push_back({request_key(kCircuits[c], job_seed(seed_, stream)),
                        false, {}, 0});
      }
      for (std::size_t j = 0; j < kHotPerCircuit; ++j) {
        jobs.push_back({hot_keys_[c], true, {}, 0});
      }
    }
    Rng rng(derive_seed(seed_, 500 + passes_));
    for (std::size_t i = jobs.size(); i > 1; --i) {
      std::swap(jobs[i - 1], jobs[rng.below(i)]);
    }
    std::vector<std::string> lines;
    for (const Job& j : jobs) lines.push_back(request_line(next_id_++, j.key));

    std::atomic<std::size_t> cursor{0};
    const auto client = [&] {
      const runtime::ExternalWorkerScope slot;  // distinct trace/scratch slot
      for (;;) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= jobs.size()) return;
        // Shared with the callback, so the promise outlives set_value().
        auto done = std::make_shared<std::promise<serve::Response>>();
        std::future<serve::Response> reply = done->get_future();
        const auto t0 = Clock::now();
        server_->submit(serve::parse_request(lines[i]),
                        [done](serve::Response r) { done->set_value(std::move(r)); });
        jobs[i].resp = reply.get();
        jobs[i].ms = seconds_since(t0) * 1e3;
      }
    };
    const auto t0 = Clock::now();
    {
      std::vector<std::jthread> clients;
      for (std::size_t k = 0; k < kClients; ++k) clients.emplace_back(client);
    }
    const double timed = seconds_since(t0);

    const bool first = run.jobs.empty();  // outputs are recorded once per run
    for (Job& j : jobs) {
      const bool ok = j.resp.status == serve::Status::Ok;
      run.jobs.push_back({j.ms, j.hot ? Run::Job::Hot : Run::Job::Cold});
      run.checked(ok);
      run.queue_ms.push_back(static_cast<double>(j.resp.queue_ns) / 1e6);
      run.run_ms.push_back(static_cast<double>(j.resp.run_ns) / 1e6);
      if (!ok) continue;
      const obs::Json& r = j.resp.result;
      if (first) {
        run.test_count += r.at("test_count").as_double();
        run.p0_detected += r.at("p0_detected").as_double();
        run.p0_total += r.at("p0_total").as_double();
        run.union_detected += r.at("union_detected").as_double();
        run.union_total += r.at("union_total").as_double();
      }
      answers_.emplace_back(j.key, r.dump());
    }
    ++passes_;
    return timed;
  }

  /// Every result is byte-equal to an uncached run_job of the same request.
  /// The expected answers are computed once per distinct key, on at most
  /// nproc threads.
  void finish(Run& run) override {
    std::map<std::string, std::string> expected;
    for (const auto& a : answers_) expected.emplace(a.first, std::string());
    std::vector<std::map<std::string, std::string>::iterator> todo;
    for (auto it = expected.begin(); it != expected.end(); ++it) todo.push_back(it);

    std::atomic<std::size_t> cursor{0};
    const auto verifier = [&] {
      const runtime::ExternalWorkerScope slot;
      for (;;) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= todo.size()) return;
        const serve::Response r = serve::run_job(
            serve::parse_request(request_line(0, todo[i]->first)),
            serve::JobContext{});
        if (r.status == serve::Status::Ok) todo[i]->second = r.result.dump();
      }
    };
    const std::size_t threads = std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 1, 4);
    {
      std::vector<std::jthread> pool;
      for (std::size_t k = 0; k < threads; ++k) pool.emplace_back(verifier);
    }
    for (const auto& [key, bytes] : answers_) {
      const std::string& want = expected.at(key);
      if (want.empty() || want != bytes) ++run.failed;
    }
    answers_.clear();
  }

 private:
  std::uint64_t seed_;
  std::filesystem::path store_dir_;
  std::vector<std::string> hot_keys_;
  std::unique_ptr<serve::Server> server_;
  bool warmed_ = false;
  std::size_t passes_ = 0;
  std::int64_t next_id_ = 1;
  std::vector<std::pair<std::string, std::string>> answers_;  // key, result
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed(const Options& o) {
  return std::make_unique<ServeMixed>(o);
}

}  // namespace perfbench
