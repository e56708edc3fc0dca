#include "store/artifact_store.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "runtime/metrics.hpp"
#include "store/hash.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace pdf::store {
namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'P', 'D', 'A', 'S'};
constexpr std::size_t kHeaderSize = 32;

runtime::Metrics::Counter& hits_counter() {
  static auto& c = runtime::Metrics::global().counter("store.hits");
  return c;
}
runtime::Metrics::Counter& misses_counter() {
  static auto& c = runtime::Metrics::global().counter("store.misses");
  return c;
}
runtime::Metrics::Counter& corrupt_counter() {
  static auto& c = runtime::Metrics::global().counter("store.corrupt");
  return c;
}
runtime::Metrics::Counter& bytes_read_counter() {
  static auto& c = runtime::Metrics::global().counter("store.bytes_read");
  return c;
}
runtime::Metrics::Counter& bytes_written_counter() {
  static auto& c = runtime::Metrics::global().counter("store.bytes_written");
  return c;
}
runtime::Metrics::Timer& read_timer() {
  static auto& t = runtime::Metrics::global().timer("store.read_ns");
  return t;
}
runtime::Metrics::Timer& write_timer() {
  static auto& t = runtime::Metrics::global().timer("store.write_ns");
  return t;
}
runtime::Metrics::Histogram& record_bytes_hist() {
  static auto& h = runtime::Metrics::global().histogram("store.record_bytes");
  return h;
}
runtime::Metrics::Histogram& hit_ns_hist() {
  static auto& h = runtime::Metrics::global().histogram("store.hit_ns");
  return h;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void put_u16le(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u64le(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t get_u16le(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint64_t get_u64le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::string key_hex(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

/// Unique-per-call temp suffix: pid + a process-wide counter, so concurrent
/// writers (threads or processes) in one directory never collide.
std::string temp_suffix() {
  static std::atomic<std::uint64_t> counter{0};
  const unsigned long pid = static_cast<unsigned long>(::getpid());
  return ".tmp-" + std::to_string(pid) + "-" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

bool write_file_durable(const fs::path& path, const std::uint8_t* header,
                        std::size_t header_size,
                        std::span<const std::byte> payload) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  bool ok = true;
  auto write_all = [&](const void* data, std::size_t len) {
    const auto* p = static_cast<const char*>(data);
    while (len > 0) {
      const ::ssize_t n = ::write(fd, p, len);
      if (n <= 0) return false;
      p += n;
      len -= static_cast<std::size_t>(n);
    }
    return true;
  };
  ok = write_all(header, header_size) && write_all(payload.data(), payload.size());
  // fsync before the rename so a crash can't publish a half-written record
  // under the final name.
  ok = ok && ::fsync(fd) == 0;
  ok = (::close(fd) == 0) && ok;
  return ok;
}

/// Reads exactly `len` bytes; false on error or a short file.
bool read_exact(int fd, void* data, std::size_t len) {
  auto* p = static_cast<char*>(data);
  while (len > 0) {
    const ::ssize_t n = ::read(fd, p, len);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Owns a read-only file descriptor; fd < 0 when the open failed.
struct ReadFd {
  explicit ReadFd(const fs::path& path)
      : fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {}
  ~ReadFd() {
    if (fd >= 0) ::close(fd);
  }
  ReadFd(const ReadFd&) = delete;
  ReadFd& operator=(const ReadFd&) = delete;
  int fd;
};

/// Moves a corrupt record out of its slot (to `<name>.corrupt`), so the
/// slot heals by recomputation.
void quarantine(const fs::path& path) {
  std::error_code ec;
  fs::rename(path, path.string() + ".corrupt", ec);
  if (ec) fs::remove(path, ec);  // last resort: clear the bad slot
}

}  // namespace

// ---- ArtifactStore ----------------------------------------------------------

ArtifactStore::ArtifactStore(fs::path root) : root_(std::move(root)) {}

fs::path ArtifactStore::path_of(const ArtifactKey& key) const {
  return root_ / key.kind / (key_hex(key.key) + ".art");
}

bool ArtifactStore::put(const ArtifactKey& key, std::uint16_t kind_version,
                        std::span<const std::byte> payload) {
  const auto write_scope = write_timer().measure();
  const fs::path final_path = path_of(key);
  std::error_code ec;
  fs::create_directories(final_path.parent_path(), ec);
  if (ec) return false;

  std::uint8_t header[kHeaderSize];
  std::memcpy(header, kMagic, 4);
  put_u16le(header + 4, kContainerVersion);
  put_u16le(header + 6, kind_version);
  put_u64le(header + 8, key.key);
  put_u64le(header + 16, payload.size());
  put_u64le(header + 24, xxh64(payload.data(), payload.size()));

  const fs::path temp_path = final_path.string() + temp_suffix();
  if (!write_file_durable(temp_path, header, sizeof header, payload)) {
    fs::remove(temp_path, ec);
    return false;
  }
  fs::rename(temp_path, final_path, ec);
  if (ec) {
    fs::remove(temp_path, ec);
    return false;
  }
  bytes_written_counter().add(sizeof header + payload.size());
  record_bytes_hist().record(sizeof header + payload.size());
  return true;
}

std::optional<std::vector<std::byte>> ArtifactStore::get(
    const ArtifactKey& key, std::uint16_t kind_version) {
  const auto read_scope = read_timer().measure();
  const std::uint64_t t0 = now_ns();
  const fs::path path = path_of(key);
  // An I/O failure is a plain miss; a record that does not verify is also
  // counted as corrupt and quarantined.
  const auto miss = [] {
    misses_counter().add();
    return std::nullopt;
  };
  const auto corrupt = [&] {
    corrupt_counter().add();
    quarantine(path);
    return miss();
  };

  const ReadFd file(path);
  if (file.fd < 0) return miss();
  struct ::stat st {};
  if (::fstat(file.fd, &st) != 0) return miss();
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  if (file_size < kHeaderSize) return corrupt();

  std::uint8_t header[kHeaderSize];
  if (!read_exact(file.fd, header, sizeof header)) return miss();
  if (std::memcmp(header, kMagic, 4) != 0) return corrupt();
  // A version difference is not corruption (a different build wrote it), but
  // the key is derived from the versions, so a mismatch here means the file
  // content does not match its address: quarantine.
  if (get_u16le(header + 4) != kContainerVersion ||
      get_u16le(header + 6) != kind_version ||
      get_u64le(header + 8) != key.key) {
    return corrupt();
  }
  // The size field is checked against the file before anything is
  // allocated, so a corrupt header can never ask for more than the file has.
  const std::uint64_t payload_size = get_u64le(header + 16);
  if (payload_size != file_size - kHeaderSize) return corrupt();

  std::vector<std::byte> payload(payload_size);
  if (!read_exact(file.fd, payload.data(), payload.size())) return miss();
  if (xxh64(payload.data(), payload.size()) != get_u64le(header + 24)) {
    return corrupt();
  }
  hits_counter().add();
  bytes_read_counter().add(file_size);
  record_bytes_hist().record(file_size);
  hit_ns_hist().record(now_ns() - t0);
  return payload;
}

}  // namespace pdf::store
