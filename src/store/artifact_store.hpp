// Content-addressed on-disk artifact store.
//
// Layout: `<root>/<kind>/<16-hex-key>.art`, one record per file. A record is
// a fixed 32-byte header followed by the payload:
//
//   offset  size  field
//   0       4     magic "PDAS"
//   4       2     container format version (kContainerVersion)
//   6       2     payload kind version (Serde<T>::version)
//   8       8     key (sanity: must match the filename-derived key)
//   16      8     payload size in bytes
//   24      8     XXH64 of the payload
//   32      —     payload
//
// Crash safety / concurrency: writers write to a unique temp file in the
// same directory, fsync it, then rename() onto the final path. rename() is
// atomic on POSIX, so readers only ever observe complete records — when two
// processes race on one key, one rename wins and both files were valid.
// Readers verify magic, versions, key, size and checksum on every load; any
// mismatch counts as a miss and the offending file is quarantined (renamed
// to `<name>.corrupt`) so the slot heals by recomputation.
//
// The store is best-effort by design: every I/O failure degrades to a miss
// (reads) or a dropped write — callers always fall back to recomputation and
// never observe an exception from storage problems. Hit/miss/corruption and
// byte counters land in the runtime metrics registry (`store.*`).
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pdf::store {

inline constexpr std::uint16_t kContainerVersion = 1;

/// Address of one artifact: the record kind (subdirectory) plus the 64-bit
/// content key (derived from kind, versions, input digests and parameters —
/// see StageCache::make_key).
struct ArtifactKey {
  std::string kind;
  std::uint64_t key = 0;
};

class ArtifactStore {
 public:
  /// Binds to a store root. Nothing is created until the first put().
  explicit ArtifactStore(std::filesystem::path root);

  const std::filesystem::path& root() const { return root_; }

  /// Atomically publishes a record. Returns false (dropping the write) on
  /// any I/O failure; existing records for the key are replaced.
  bool put(const ArtifactKey& key, std::uint16_t kind_version,
           std::span<const std::byte> payload);

  /// Loads and verifies a record; nullopt on miss or corruption (corrupt
  /// files are quarantined as a side effect).
  std::optional<std::vector<std::byte>> get(const ArtifactKey& key,
                                            std::uint16_t kind_version);

  /// Final path of a key's record file (whether or not it exists).
  std::filesystem::path path_of(const ArtifactKey& key) const;

 private:
  std::filesystem::path root_;
};

}  // namespace pdf::store
