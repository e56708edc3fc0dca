#include "serve/socket_io.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace pdf::serve {

namespace {

bool fill_sockaddr(const std::string& path, sockaddr_un* addr,
                   std::string* err) {
  if (path.size() >= sizeof(addr->sun_path)) {
    if (err) *err = "socket path too long: " + path;
    return false;
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

int listen_unix(const std::string& path, int backlog, std::string* err) {
  sockaddr_un addr;
  if (!fill_sockaddr(path, &addr, err)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err) *err = errno_message("socket");
    return -1;
  }
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (err) *err = errno_message(("bind " + path).c_str());
    ::close(fd);
    return -1;
  }
  if (::listen(fd, backlog) < 0) {
    if (err) *err = errno_message("listen");
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_unix(const std::string& path, std::string* err) {
  sockaddr_un addr;
  if (!fill_sockaddr(path, &addr, err)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err) *err = errno_message("socket");
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (err) *err = errno_message(("connect " + path).c_str());
    ::close(fd);
    return -1;
  }
  return fd;
}

int accept_connection(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    // MSG_NOSIGNAL: a client that hung up must surface as EPIPE here, not
    // kill the daemon with SIGPIPE.
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool LineReader::read_line(std::string* line) {
  for (;;) {
    const auto nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line->assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    if (eof_) {
      if (buf_.empty()) return false;
      line->swap(buf_);
      buf_.clear();
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) {
      eof_ = true;
      continue;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

void shutdown_fd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

}  // namespace pdf::serve
