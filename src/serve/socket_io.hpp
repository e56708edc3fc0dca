// Minimal Unix-domain stream-socket helpers shared by the pdf_serve daemon
// and the pdf_load client. POSIX-only, like the rest of the library; every
// function reports failure by return value, never by abort.
#pragma once

#include <string>
#include <string_view>

namespace pdf::serve {

/// Creates, binds and listens on a Unix-domain stream socket at `path`
/// (unlinking a stale file first). Returns the fd, or -1 with `err`
/// describing the failure.
int listen_unix(const std::string& path, int backlog, std::string* err);

/// Connects to the daemon socket at `path`. Returns the fd or -1.
int connect_unix(const std::string& path, std::string* err);

/// accept() that retries EINTR. Returns the connection fd or -1.
int accept_connection(int listen_fd);

/// Writes all of `data`, retrying partial writes and EINTR. False on error
/// (receiver gone). SIGPIPE is suppressed per-call.
bool write_all(int fd, std::string_view data);

/// Buffered newline-delimited reader over a socket fd.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Blocks for the next '\n'-terminated line (terminator stripped). False
  /// on EOF or read error; a final unterminated fragment is delivered as a
  /// last line.
  bool read_line(std::string* line);

 private:
  int fd_;
  std::string buf_;
  bool eof_ = false;
};

void close_fd(int fd);

/// shutdown(SHUT_RDWR): unblocks a reader stuck in read() on `fd` so its
/// thread can exit (the daemon's drain path).
void shutdown_fd(int fd);

}  // namespace pdf::serve
