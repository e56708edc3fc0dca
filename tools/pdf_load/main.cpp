// pdf_load — client and load generator for the pdf_serve daemon.
//
// Opens --clients connections, pushes --jobs enrichment jobs through them
// (each client works synchronously: send one line, read one line), honours
// admission-control rejections by backing off retry_after_ms and resending,
// and reports throughput, client-observed latency percentiles (p50/p90/p99
// from a sharded runtime::Histogram), rejection/retry counts, and the
// server-attributed cache hit/miss totals. With --stats-every S a background
// poller sends `stats` (pdf.admin/1) on its own connection every S seconds
// and prints the live server-side queue depth and run-time percentiles.
//
// A --hot-fraction of the jobs share one (circuit, seed) pair — after the
// first completion these are pure StageCache hits and measure the warm
// path; the rest get distinct seeds and measure cold generation.
//
// --verify recomputes every distinct job in-process through the same
// serve::run_job the daemon uses (cache disabled) and compares the
// deterministic `result` objects byte-for-byte; any mismatch is a protocol
// determinism bug and exits nonzero.
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/number.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "serve/socket_io.hpp"

namespace {

using namespace pdf;

struct Flags {
  std::string socket_path = "pdf_serve.sock";
  std::size_t jobs = 32;
  std::size_t clients = 4;
  std::vector<std::string> circuits = {"s27"};
  std::size_t n_p = 400;
  std::size_t n_p0 = 60;
  std::uint64_t seed_base = 1;
  double hot_fraction = 0.5;
  std::size_t max_retries = 200;
  double stats_every = 0.0;  // seconds between live stats polls; 0 = off
  bool basic = false;
  bool verify = false;
  bool quiet = false;
};

[[noreturn]] void usage(const char* argv0, const std::string& err) {
  std::fprintf(stderr, "pdf_load: %s\n", err.c_str());
  std::fprintf(stderr,
               "usage: %s [--socket PATH] [--jobs N] [--clients N]"
               " [--circuits a,b] [--np N] [--np0 N] [--seed-base S]"
               " [--hot-fraction F] [--max-retries N] [--stats-every SECS]"
               " [--basic] [--verify] [--quiet]\n",
               argv0);
  std::exit(2);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const auto comma = s.find(',', pos);
    const auto end = comma == std::string::npos ? s.size() : comma;
    if (end > pos) out.push_back(s.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

Flags parse_flags(int argc, char** argv) {
  Flags f;
  auto need = [&](int i) -> std::string {
    if (i + 1 >= argc) usage(argv[0], std::string(argv[i]) + " needs a value");
    return argv[i + 1];
  };
  auto number = [&](int i) -> std::uint64_t {
    const std::optional<std::uint64_t> v = parse_decimal(need(i));
    if (!v) usage(argv[0], std::string(argv[i]) + " needs a whole decimal number");
    return *v;
  };
  auto real = [&](int i) -> double {
    const std::string text = need(i);
    double v = 0.0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc{} || end != text.data() + text.size() || !(v >= 0.0)) {
      usage(argv[0], std::string(argv[i]) + " needs a number >= 0");
    }
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--socket") f.socket_path = need(i), ++i;
    else if (a == "--jobs") f.jobs = number(i), ++i;
    else if (a == "--clients") f.clients = number(i), ++i;
    else if (a == "--circuits") f.circuits = split_csv(need(i)), ++i;
    else if (a == "--np") f.n_p = number(i), ++i;
    else if (a == "--np0") f.n_p0 = number(i), ++i;
    else if (a == "--seed-base") f.seed_base = number(i), ++i;
    else if (a == "--hot-fraction") f.hot_fraction = real(i), ++i;
    else if (a == "--max-retries") f.max_retries = number(i), ++i;
    else if (a == "--stats-every") f.stats_every = real(i), ++i;
    else if (a == "--basic") f.basic = true;
    else if (a == "--verify") f.verify = true;
    else if (a == "--quiet") f.quiet = true;
    else usage(argv[0], "unknown flag " + a);
  }
  if (f.jobs == 0 || f.clients == 0) usage(argv[0], "--jobs/--clients must be > 0");
  if (f.clients > runtime::kMaxThreads) {
    usage(argv[0], "--clients must be at most " +
                       std::to_string(runtime::kMaxThreads));
  }
  if (f.circuits.empty()) usage(argv[0], "--circuits must name a circuit");
  return f;
}

/// Deterministic job mix: job j is "hot" (shared circuit+seed — warm cache
/// after the first run) when j * hot_fraction wraps, otherwise cold with a
/// distinct seed.
serve::Request make_request(const Flags& flags, std::size_t j) {
  serve::Request req;
  req.id = static_cast<std::int64_t>(j + 1);
  req.kind = flags.basic ? serve::RequestKind::Basic
                         : serve::RequestKind::Enrich;
  const bool hot =
      static_cast<std::size_t>(static_cast<double>(j) * flags.hot_fraction) !=
      static_cast<std::size_t>(static_cast<double>(j + 1) * flags.hot_fraction);
  req.circuit = flags.circuits[j % flags.circuits.size()];
  req.target.n_p = flags.n_p;
  req.target.n_p0 = flags.n_p0;
  req.gen.seed = hot ? flags.seed_base : flags.seed_base + 1 + j;
  return req;
}

struct Results {
  std::mutex mu;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t rejected = 0;  // Rejected responses observed
  std::uint64_t retries = 0;   // resends after a rejection
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// job index -> result line, for --verify.
  std::map<std::size_t, std::string> result_bytes;
  std::vector<std::string> failures;
};

/// Per-request client-observed latency in microseconds. A sharded
/// runtime::Histogram, so the client threads record lock-free and the
/// summary reads exact merged percentiles after the join.
runtime::Metrics::Histogram& latency_hist() {
  static auto& h = runtime::Metrics::global().histogram("load.latency_us");
  return h;
}

void client_main(const Flags& flags, std::size_t client, Results* out) {
  std::string err;
  const int fd = serve::connect_unix(flags.socket_path, &err);
  if (fd < 0) {
    std::lock_guard<std::mutex> lk(out->mu);
    out->failures.push_back("client " + std::to_string(client) + ": " + err);
    return;
  }
  serve::LineReader reader(fd);

  for (std::size_t j = client; j < flags.jobs; j += flags.clients) {
    const serve::Request req = make_request(flags, j);
    const std::string line = serve::request_json(req).dump() + "\n";
    const auto t0 = std::chrono::steady_clock::now();
    bool done = false;
    for (std::size_t attempt = 0; !done && attempt <= flags.max_retries;
         ++attempt) {
      std::string resp_line;
      if (!serve::write_all(fd, line) || !reader.read_line(&resp_line)) {
        std::lock_guard<std::mutex> lk(out->mu);
        out->failures.push_back("client " + std::to_string(client) +
                                ": connection lost");
        serve::close_fd(fd);
        return;
      }
      serve::Response resp;
      try {
        resp = serve::parse_response(resp_line);
      } catch (const obs::JsonError& e) {
        std::lock_guard<std::mutex> lk(out->mu);
        out->failures.push_back("client " + std::to_string(client) +
                                ": bad response: " + e.what());
        serve::close_fd(fd);
        return;
      }
      switch (resp.status) {
        case serve::Status::Rejected: {
          // Admission pushback: honour the hint and resend.
          {
            std::lock_guard<std::mutex> lk(out->mu);
            ++out->rejected;
            if (attempt < flags.max_retries) ++out->retries;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(
              resp.retry_after_ms ? resp.retry_after_ms : 10));
          break;
        }
        case serve::Status::Ok: {
          const auto us =
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
          latency_hist().record(static_cast<std::uint64_t>(us));
          std::lock_guard<std::mutex> lk(out->mu);
          ++out->ok;
          out->cache_hits += resp.cache_hits;
          out->cache_misses += resp.cache_misses;
          out->result_bytes.emplace(j, resp.result.dump());
          done = true;
          break;
        }
        default: {
          std::lock_guard<std::mutex> lk(out->mu);
          ++out->errors;
          out->failures.push_back("job " + std::to_string(req.id) + ": [" +
                                  resp.error.kind + "] " +
                                  resp.error.message);
          done = true;
          break;
        }
      }
    }
    if (!done) {
      std::lock_guard<std::mutex> lk(out->mu);
      ++out->errors;
      out->failures.push_back("job " + std::to_string(req.id) +
                              ": retry budget exhausted");
    }
  }
  serve::close_fd(fd);
}

/// Polls the daemon's `stats` admin request on its own connection every
/// --stats-every seconds and prints live server-side p50/p99 to stderr.
/// Runs until `stop` flips; read-only, so it never perturbs the job mix.
void stats_poller(const Flags& flags, std::atomic<bool>* stop) {
  std::string err;
  const int fd = serve::connect_unix(flags.socket_path, &err);
  if (fd < 0) {
    std::fprintf(stderr, "pdf_load: stats poller: %s\n", err.c_str());
    return;
  }
  serve::LineReader reader(fd);
  serve::Request req;
  req.id = -1;
  req.kind = serve::RequestKind::Stats;
  const std::string line = serve::request_json(req).dump() + "\n";

  while (!stop->load(std::memory_order_relaxed)) {
    std::string resp_line;
    if (!serve::write_all(fd, line) || !reader.read_line(&resp_line)) break;
    try {
      const serve::Response resp = serve::parse_response(resp_line);
      const obs::Json& run =
          resp.result.at("latency").at("serve.latency.run_ns");
      std::fprintf(
          stderr,
          "pdf_load: [stats] queue %lld done %lld run_ms p50 %.2f p99 %.2f\n",
          static_cast<long long>(resp.result.at("queue").at("depth").as_int()),
          static_cast<long long>(
              resp.result.at("jobs").at("completed").as_int()),
          static_cast<double>(run.at("p50").as_int()) / 1e6,
          static_cast<double>(run.at("p99").as_int()) / 1e6);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pdf_load: stats poller: %s\n", e.what());
    }
    // Sleep in short slices so the poller stops promptly after the join.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(flags.stats_every);
    while (!stop->load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  serve::close_fd(fd);
}

/// Recomputes each distinct job in-process (no cache) and compares result
/// bytes. Distinct jobs are memoized locally so hot duplicates verify once.
std::size_t verify_results(const Flags& flags, const Results& results) {
  const serve::JobContext ctx{};
  std::map<std::string, std::string> expected;  // request line -> result bytes
  std::size_t mismatches = 0;
  for (const auto& [j, bytes] : results.result_bytes) {
    const serve::Request req = make_request(flags, j);
    const std::string key = serve::request_json(req).dump();
    auto it = expected.find(key);
    if (it == expected.end()) {
      const serve::Response ref = serve::run_job(req, ctx);
      it = expected.emplace(key, ref.result.dump()).first;
    }
    if (it->second != bytes) {
      ++mismatches;
      std::fprintf(stderr, "pdf_load: VERIFY MISMATCH job %zu\n  want %s\n  got  %s\n",
                   j, it->second.c_str(), bytes.c_str());
    }
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = parse_flags(argc, argv);

  Results results;
  std::atomic<bool> stop_poller{false};
  std::thread poller;
  if (flags.stats_every > 0.0) {
    poller = std::thread(stats_poller, flags, &stop_poller);
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(flags.clients);
  for (std::size_t c = 0; c < flags.clients; ++c) {
    clients.emplace_back(client_main, flags, c, &results);
  }
  for (auto& t : clients) t.join();
  if (poller.joinable()) {
    stop_poller.store(true, std::memory_order_relaxed);
    poller.join();
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  for (const auto& f : results.failures) {
    std::fprintf(stderr, "pdf_load: %s\n", f.c_str());
  }

  std::size_t mismatches = 0;
  if (flags.verify) mismatches = verify_results(flags, results);

  if (!flags.quiet) {
    std::printf("jobs %zu ok %llu errors %llu rejected %llu retries %llu\n",
                flags.jobs, static_cast<unsigned long long>(results.ok),
                static_cast<unsigned long long>(results.errors),
                static_cast<unsigned long long>(results.rejected),
                static_cast<unsigned long long>(results.retries));
    std::printf("wall %.3fs throughput %.1f jobs/s\n", secs,
                secs > 0 ? static_cast<double>(results.ok) / secs : 0.0);
    const auto lat = latency_hist().snapshot();
    std::printf("latency_ms p50 %.2f p90 %.2f p99 %.2f max %.2f\n",
                static_cast<double>(lat.p50()) / 1e3,
                static_cast<double>(lat.p90()) / 1e3,
                static_cast<double>(lat.p99()) / 1e3,
                static_cast<double>(lat.max) / 1e3);
    std::printf("cache hits %llu misses %llu\n",
                static_cast<unsigned long long>(results.cache_hits),
                static_cast<unsigned long long>(results.cache_misses));
    if (flags.verify) {
      std::printf("verify %s\n", mismatches == 0 ? "ok" : "MISMATCH");
    }
  }

  const bool ok = results.errors == 0 && results.failures.empty() &&
                  results.ok == flags.jobs && mismatches == 0;
  return ok ? 0 : 1;
}
