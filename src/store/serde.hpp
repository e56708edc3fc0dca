// Versioned binary serialization of the pipeline's core value types.
//
// Every codec writes an explicit little-endian byte stream — no struct
// memcpy, no host-order fields — so a record written on any host decodes on
// any other. Decoders copy into owning values; the store reads a record
// with ArtifactStore::get and hands the payload to `Serde<T>::get`.
//
// Versioning: each serializable type carries a `Serde<T>` trait with a
// `kind` string and a `version` number. Both are folded into the artifact
// key, so bumping `version` after a layout change silently invalidates every
// record of that kind — old files are simply never looked up again. Decoders
// therefore never need migration paths.
//
// Decode errors throw `SerdeError`; the store layer treats any throw as a
// cache miss.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "atpg/generator.hpp"
#include "atpg/test_pattern.hpp"
#include "enrich/enrichment.hpp"
#include "enrich/target_sets.hpp"
#include "faults/screen.hpp"
#include "faultsim/detection_matrix.hpp"
#include "netlist/netlist.hpp"

namespace pdf::store {

class SerdeError : public std::runtime_error {
 public:
  explicit SerdeError(const std::string& what) : std::runtime_error(what) {}
};

// ---- byte stream primitives -------------------------------------------------

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern; bit-exact round-trip.
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  std::size_t size() const { return buf_.size(); }
  std::span<const std::byte> view() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// Bounds-checked little-endian reader over a borrowed buffer.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint16_t u16() {
    const std::uint16_t lo = u8();
    return static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(u8()) << 8));
  }
  std::uint32_t u32() {
    const std::uint32_t lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    return lo | (static_cast<std::uint64_t>(u32()) << 32);
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw SerdeError("invalid boolean byte");
    return v != 0;
  }
  std::string str() {
    const std::uint64_t n = length(u64());
    const std::span<const std::byte> s = take(n);
    return std::string(reinterpret_cast<const char*>(s.data()), s.size());
  }

  /// Consumes `n` bytes; throws on overrun.
  std::span<const std::byte> take(std::size_t n) {
    if (n > data_.size() - pos_) throw SerdeError("truncated record");
    const std::span<const std::byte> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// Validates a decoded element count against the remaining bytes (each
  /// element needs at least one byte) so hostile counts cannot drive huge
  /// allocations before the truncation check fires.
  std::uint64_t length(std::uint64_t n, std::size_t min_elem_size = 1) {
    if (min_elem_size != 0 && n > remaining() / min_elem_size) {
      throw SerdeError("element count exceeds record size");
    }
    return n;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

// ---- per-type codecs --------------------------------------------------------

void encode(ByteWriter& w, const Triple& t);
Triple decode_triple(ByteReader& r);

void encode(ByteWriter& w, const TwoPatternTest& t);
TwoPatternTest decode_test(ByteReader& r);

void encode(ByteWriter& w, std::span<const TwoPatternTest> tests);
std::vector<TwoPatternTest> decode_tests(ByteReader& r);

void encode(ByteWriter& w, const Path& p);
Path decode_path(ByteReader& r);

void encode(ByteWriter& w, const PathDelayFault& f);
PathDelayFault decode_fault(ByteReader& r);

void encode(ByteWriter& w, const TargetFault& f);
TargetFault decode_target_fault(ByteReader& r);

void encode(ByteWriter& w, std::span<const TargetFault> faults);
std::vector<TargetFault> decode_target_faults(ByteReader& r);

void encode(ByteWriter& w, const LengthProfile& p);
LengthProfile decode_length_profile(ByteReader& r);

void encode(ByteWriter& w, const ScreenStats& s);
ScreenStats decode_screen_stats(ByteReader& r);

void encode(ByteWriter& w, const TargetSets& ts);
TargetSets decode_target_sets(ByteReader& r);

void encode(ByteWriter& w, const GenerationResult& r);
GenerationResult decode_generation_result(ByteReader& r);

void encode(ByteWriter& w, const UnionCoverage& c);
UnionCoverage decode_union_coverage(ByteReader& r);

/// Full structural encoding including names. Never stored as a record:
/// digest(netlist) hashes these bytes into store keys.
void encode(ByteWriter& w, const Netlist& nl);

/// DetectionMatrix payload: three u64 header words (faults, tests, words
/// per row), then the row-major words.
void encode(ByteWriter& w, const DetectionMatrix& m);
DetectionMatrix decode_detection_matrix(ByteReader& r);

// ---- Serde traits -----------------------------------------------------------

/// Trait binding a value type to its record kind, format version and codec.
/// `kind` + `version` feed the artifact key (see stage_cache.hpp), so any
/// layout change only needs a version bump to invalidate stale records.
template <typename T>
struct Serde;

template <>
struct Serde<TargetSets> {
  static constexpr std::string_view kind = "target_sets";
  static constexpr std::uint16_t version = 1;
  static void put(ByteWriter& w, const TargetSets& v) { encode(w, v); }
  static TargetSets get(ByteReader& r) { return decode_target_sets(r); }
};

template <>
struct Serde<GenerationResult> {
  static constexpr std::string_view kind = "generation_result";
  // v2: added primary_targets between the detection flags and the stats.
  static constexpr std::uint16_t version = 2;
  static void put(ByteWriter& w, const GenerationResult& v) { encode(w, v); }
  static GenerationResult get(ByteReader& r) {
    return decode_generation_result(r);
  }
};

template <>
struct Serde<UnionCoverage> {
  static constexpr std::string_view kind = "union_coverage";
  static constexpr std::uint16_t version = 1;
  static void put(ByteWriter& w, const UnionCoverage& v) { encode(w, v); }
  static UnionCoverage get(ByteReader& r) { return decode_union_coverage(r); }
};

template <>
struct Serde<DetectionMatrix> {
  static constexpr std::string_view kind = "detection_matrix";
  static constexpr std::uint16_t version = 1;
  static void put(ByteWriter& w, const DetectionMatrix& v) { encode(w, v); }
  static DetectionMatrix get(ByteReader& r) {
    return decode_detection_matrix(r);
  }
};

// ---- content digests --------------------------------------------------------

/// Structural digest of a finalized netlist (types, fanins, outputs, names).
std::uint64_t digest(const Netlist& nl);

/// Parameter digests for key derivation. Every field participates, so any
/// configuration change misses the cache instead of serving stale results.
std::uint64_t digest(const TargetSetConfig& cfg);
std::uint64_t digest(const GeneratorConfig& cfg);

/// Content digest of a test set (used to key coverage/matrix artifacts).
std::uint64_t digest(std::span<const TwoPatternTest> tests);

/// Content digest of a fault list.
std::uint64_t digest(std::span<const TargetFault> faults);

}  // namespace pdf::store
