// pdf_serve — the enrichment daemon.
//
// Accepts line-delimited JSON jobs (see src/serve/protocol.hpp) over a Unix
// domain socket, runs them through the shared serve::Server (admission
// control, worker shards, StageCache warm tier), and streams one response
// line per request back on the same connection. SIGTERM/SIGINT drain
// gracefully: admissions close immediately, in-flight and queued jobs finish
// and their responses flush before the process exits 0.
//
//   pdf_serve --socket /tmp/pdf.sock [--concurrency N] [--queue-depth N]
//             [--threads N] [--store DIR]
//             [--no-store] [--manifest-dir DIR] [--retry-after-ms N]
//             [--metrics] [--log-level debug|info|warn|error|off]
//             [--slow-job-ms N]
//   pdf_serve --once FILE|-  ... same job flags; reads request lines from
//             FILE (or stdin), writes response lines to stdout. This is the
//             single-shot path the CI serve-smoke job diffs daemon responses
//             against: both go through serve::run_job, so a warm daemon
//             answer is byte-identical to a --once answer for the same job.
//
// Protocol-level `shutdown` requests trigger the same drain as SIGTERM.
#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <poll.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "base/error.hpp"
#include "base/number.hpp"
#include "obs/log.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket_io.hpp"
#include "sim/backend.hpp"

namespace {

using namespace pdf;

struct Flags {
  std::string socket_path = "pdf_serve.sock";
  std::size_t concurrency = 2;
  std::size_t queue_depth = 64;
  std::size_t threads = 1;
  std::uint64_t retry_after_ms = 50;
  bool use_store = true;
  std::string store_dir = ".artifact-store";
  std::string manifest_dir;
  bool metrics = false;
  std::uint64_t slow_job_ms = 0;  // 0 = no slow-job trace capture
  bool once = false;
  std::string once_file;  // "-" = stdin
};

[[noreturn]] void usage(const char* argv0, const std::string& err) {
  std::fprintf(stderr, "pdf_serve: %s\n", err.c_str());
  std::fprintf(stderr,
               "usage: %s [--socket PATH] [--concurrency N] [--queue-depth N]"
               " [--threads N] [--store DIR | --no-store]"
               " [--manifest-dir DIR] [--retry-after-ms N] [--metrics]"
               " [--log-level LEVEL] [--slow-job-ms N] [--once FILE|-]\n",
               argv0);
  std::exit(2);
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
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--socket") f.socket_path = need(i), ++i;
    else if (a == "--concurrency") f.concurrency = number(i), ++i;
    else if (a == "--queue-depth") f.queue_depth = number(i), ++i;
    else if (a == "--threads") f.threads = number(i), ++i;
    else if (a == "--retry-after-ms") f.retry_after_ms = number(i), ++i;
    else if (a == "--store") f.store_dir = need(i), f.use_store = true, ++i;
    else if (a == "--no-store") f.use_store = false;
    else if (a == "--manifest-dir") f.manifest_dir = need(i), ++i;
    else if (a == "--metrics") f.metrics = true;
    else if (a == "--slow-job-ms") f.slow_job_ms = number(i), ++i;
    else if (a == "--log-level") {
      try {
        obs::set_log_level(obs::parse_log_level(need(i)));
      } catch (const ConfigError& e) {
        usage(argv[0], e.what());
      }
      ++i;
    }
    else if (a == "--once") f.once = true, f.once_file = need(i), ++i;
    else usage(argv[0], "unknown flag " + a);
  }
  if (f.queue_depth == 0) usage(argv[0], "--queue-depth must be > 0");
  if (f.concurrency > runtime::kMaxThreads || f.threads > runtime::kMaxThreads) {
    usage(argv[0], "--concurrency and --threads must be at most " +
                       std::to_string(runtime::kMaxThreads));
  }
  return f;
}

// ---- signal plumbing (self-pipe) -------------------------------------------

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 1;
  // write(2) is async-signal-safe; a full pipe just means a wakeup is
  // already pending.
  [[maybe_unused]] const auto n = ::write(g_signal_pipe[1], &byte, 1);
}

// ---- --once mode -----------------------------------------------------------

int run_once(const Flags& flags) {
  std::ifstream file;
  std::istream* in = &std::cin;
  if (flags.once_file != "-") {
    file.open(flags.once_file);
    if (!file) {
      std::fprintf(stderr, "pdf_serve: cannot open %s\n",
                   flags.once_file.c_str());
      return 2;
    }
    in = &file;
  }

  serve::JobContext ctx;
  std::optional<store::StageCache> cache;
  if (flags.use_store) {
    cache.emplace(flags.store_dir);
    ctx.cache = &*cache;
    ctx.store_dir = flags.store_dir;
  }
  ctx.manifest_dir = flags.manifest_dir;

  bool all_ok = true;
  std::string line;
  std::uint64_t serial = 0;
  while (std::getline(*in, line)) {
    if (line.empty()) continue;
    serve::Response resp;
    try {
      const serve::Request req = serve::parse_request(line);
      switch (req.kind) {
        case serve::RequestKind::Enrich:
        case serve::RequestKind::Basic:
          resp = serve::run_job(req, ctx, ++serial);
          break;
        case serve::RequestKind::Ping:
          resp.id = req.id;
          resp.result["pong"] = true;
          resp.result["protocol"] = serve::kProtocolVersion;
          break;
        default:
          resp.id = req.id;
          resp.status = serve::Status::Error;
          resp.error.kind = "config_error";
          resp.error.message = std::string(serve::kind_name(req.kind)) +
                               " requests need a running daemon";
          break;
      }
    } catch (...) {
      resp.id = serve::salvage_request_id(line);
      resp.status = serve::Status::Error;
      resp.error = serve::classify_error(std::current_exception());
    }
    if (resp.status != serve::Status::Ok) all_ok = false;
    std::cout << resp.to_line() << "\n";
  }
  std::cout.flush();
  return all_ok ? 0 : 1;
}

// ---- daemon mode -----------------------------------------------------------

/// One accepted client connection: a reader thread plus the shared state the
/// asynchronous response writers need. The fd is closed only after every
/// submitted job has responded (pending == 0), so a worker can never write
/// into a recycled fd.
struct Connection {
  int fd = -1;
  std::mutex write_mu;
  std::mutex pending_mu;
  std::condition_variable pending_cv;
  std::size_t pending = 0;
  std::atomic<bool> open{true};
  std::thread reader;
};

void send_response(const std::shared_ptr<Connection>& conn,
                   const serve::Response& resp) {
  std::lock_guard<std::mutex> lk(conn->write_mu);
  if (!conn->open.load(std::memory_order_relaxed)) return;
  if (!serve::write_all(conn->fd, resp.to_line() + "\n")) {
    // Client went away; keep draining silently — jobs still complete and
    // populate the shared cache. Shut the read side too so the reader
    // thread unblocks promptly.
    conn->open.store(false, std::memory_order_relaxed);
    serve::shutdown_fd(conn->fd);
  }
}

void connection_main(std::shared_ptr<Connection> conn, serve::Server* server) {
  serve::LineReader reader(conn->fd);
  std::string line;
  while (reader.read_line(&line)) {
    if (line.empty()) continue;
    serve::Request req;
    try {
      req = serve::parse_request(line);
    } catch (...) {
      serve::Response resp;
      resp.id = serve::salvage_request_id(line);
      resp.status = serve::Status::Error;
      resp.error = serve::classify_error(std::current_exception());
      send_response(conn, resp);
      continue;
    }
    {
      std::lock_guard<std::mutex> lk(conn->pending_mu);
      ++conn->pending;
    }
    server->submit(std::move(req), [conn](serve::Response resp) {
      send_response(conn, resp);
      {
        std::lock_guard<std::mutex> lk(conn->pending_mu);
        --conn->pending;
      }
      conn->pending_cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lk(conn->pending_mu);
    conn->pending_cv.wait(lk, [&] { return conn->pending == 0; });
  }
  std::lock_guard<std::mutex> lk(conn->write_mu);
  conn->open.store(false, std::memory_order_relaxed);
  serve::close_fd(conn->fd);
  conn->fd = -1;
}

int run_daemon(const Flags& flags) {
  if (::pipe(g_signal_pipe) != 0) {
    std::perror("pdf_serve: pipe");
    return 2;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  std::string err;
  const int listen_fd = serve::listen_unix(flags.socket_path, 64, &err);
  if (listen_fd < 0) {
    std::fprintf(stderr, "pdf_serve: %s\n", err.c_str());
    return 2;
  }

  serve::ServerConfig cfg;
  cfg.concurrency = flags.concurrency;
  cfg.queue_depth = flags.queue_depth;
  cfg.retry_after_ms = flags.retry_after_ms;
  cfg.store_dir = flags.use_store ? flags.store_dir : "";
  cfg.manifest_dir = flags.manifest_dir;
  cfg.shutdown_hook = [] { on_signal(0); };
  cfg.slow_job_ms = flags.slow_job_ms;
  serve::Server server(cfg);

  std::fprintf(stderr,
               "pdf_serve: listening on %s (concurrency %zu, queue %zu, "
               "backend %s, store %s)\n",
               flags.socket_path.c_str(), flags.concurrency, flags.queue_depth,
               sim::selected_backend().name(),
               flags.use_store ? flags.store_dir.c_str() : "off");
  PDF_LOG(Info, "serve.listening")
      .str("socket", flags.socket_path)
      .num("concurrency", static_cast<std::uint64_t>(flags.concurrency))
      .num("queue_depth", static_cast<std::uint64_t>(flags.queue_depth))
      .str("backend", sim::selected_backend().name())
      .num("slow_job_ms", flags.slow_job_ms)
      .str("log_level", obs::log_level_name(obs::log_level()));

  std::vector<std::shared_ptr<Connection>> connections;
  for (;;) {
    pollfd fds[2] = {{listen_fd, POLLIN, 0}, {g_signal_pipe[0], POLLIN, 0}};
    const int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::perror("pdf_serve: poll");
      break;
    }
    if (fds[1].revents) break;  // SIGTERM/SIGINT/shutdown request
    if (fds[0].revents) {
      const int fd = serve::accept_connection(listen_fd);
      if (fd < 0) continue;
      PDF_LOG(Debug, "serve.connection.accepted").num("fd", std::int64_t{fd});
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      conn->reader = std::thread(connection_main, conn, &server);
      connections.push_back(std::move(conn));
    }
  }

  // Graceful drain: stop accepting, let admitted jobs finish and flush their
  // responses, then unblock the readers and join them.
  std::fprintf(stderr, "pdf_serve: draining (%zu queued)\n",
               server.queue_depth());
  PDF_LOG(Info, "serve.signal")
      .num("queued", static_cast<std::uint64_t>(server.queue_depth()))
      .num("connections", static_cast<std::uint64_t>(connections.size()));
  serve::close_fd(listen_fd);
  ::unlink(flags.socket_path.c_str());
  server.drain();
  for (auto& conn : connections) {
    {
      // write_mu guards fd against the reader's own close-on-EOF path
      // (shutdown_fd is a no-op once the reader set fd = -1).
      std::lock_guard<std::mutex> lk(conn->write_mu);
      serve::shutdown_fd(conn->fd);
    }
    conn->reader.join();
  }
  if (flags.metrics) {
    std::fprintf(stderr, "%s", runtime::Metrics::global().dump().c_str());
  }
  std::fprintf(stderr, "pdf_serve: drained cleanly\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  obs::init_log_level_from_env();  // --log-level below overrides
  const Flags flags = parse_flags(argc, argv);
  runtime::set_global_threads(flags.threads);
  if (flags.once) return run_once(flags);
  return run_daemon(flags);
}
