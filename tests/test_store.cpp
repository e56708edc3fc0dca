// Artifact-store subsystem tests: XXH64 against published vectors, the
// little-endian byte codecs, property-style serde round-trips over random
// circuits, the detection-matrix decoder's payload checks, and the on-disk
// store's corruption handling and concurrent same-key behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "atpg/generator.hpp"
#include "base/rng.hpp"
#include "enrich/target_sets.hpp"
#include "faultsim/detection_matrix.hpp"
#include "runtime/metrics.hpp"
#include "store/artifact_store.hpp"
#include "store/hash.hpp"
#include "store/serde.hpp"
#include "testutil/circuits.hpp"

namespace pdf {
namespace {

namespace fs = std::filesystem;
using store::ArtifactKey;
using store::ArtifactStore;
using store::ByteReader;
using store::ByteWriter;
using store::Hasher64;
using store::SerdeError;
using store::xxh64;

/// Unique scratch directory, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "pdf-store-XXXXXX").string();
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

std::vector<std::byte> to_bytes(std::string_view s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return {p, p + s.size()};
}

// ---- XXH64 ------------------------------------------------------------------

TEST(StoreHash, PublishedTestVectors) {
  EXPECT_EQ(xxh64(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(xxh64("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(xxh64("abc"), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(xxh64("message digest"), 0x066ED728FCEEB3BEULL);
}

TEST(StoreHash, StreamingMatchesOneShot) {
  Rng rng(7);
  std::vector<std::uint8_t> buf(1021);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(256));

  for (const std::uint64_t seed : {0ULL, 1ULL, 0xDEADBEEFULL}) {
    const std::uint64_t want = xxh64(buf.data(), buf.size(), seed);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                    std::size_t{7}, std::size_t{32},
                                    std::size_t{33}, std::size_t{257}}) {
      Hasher64 h(seed);
      for (std::size_t off = 0; off < buf.size(); off += chunk) {
        h.update(buf.data() + off, std::min(chunk, buf.size() - off));
      }
      EXPECT_EQ(h.digest(), want) << "chunk " << chunk << " seed " << seed;
    }
  }
}

TEST(StoreHash, DigestIsRepeatableAndResettable) {
  Hasher64 h;
  h.update_string("hello");
  const std::uint64_t d1 = h.digest();
  EXPECT_EQ(h.digest(), d1);  // digest() must not consume state
  h.reset();
  h.update_string("hello");
  EXPECT_EQ(h.digest(), d1);
  h.reset();
  h.update_string("world");
  EXPECT_NE(h.digest(), d1);
}

// ---- byte stream primitives -------------------------------------------------

TEST(StoreSerde, WriterProducesLittleEndianLayout) {
  ByteWriter w;
  w.u32(0x11223344u);
  w.u64(0x0102030405060708ULL);
  const auto v = w.view();
  ASSERT_EQ(v.size(), 12u);
  const std::uint8_t expect[12] = {0x44, 0x33, 0x22, 0x11, 0x08, 0x07,
                                   0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>(v[i]), expect[i]) << "byte " << i;
  }
}

TEST(StoreSerde, PrimitiveRoundTrip) {
  ByteWriter w;
  w.u8(200);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-12345);
  w.i64(-9876543210LL);
  w.f64(0.1);  // not exactly representable: bit pattern must survive
  w.boolean(true);
  w.str("two-pattern");
  w.u64(42);

  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 200);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32(), -12345);
  EXPECT_EQ(r.i64(), -9876543210LL);
  EXPECT_EQ(r.f64(), 0.1);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "two-pattern");
  EXPECT_EQ(r.u64(), 42u);
  EXPECT_TRUE(r.exhausted());
}

TEST(StoreSerde, ReaderRejectsMalformedInput) {
  {
    ByteWriter w;
    w.u32(7);
    ByteReader r(w.view());
    r.u16();
    EXPECT_THROW(r.u32(), SerdeError);  // overrun
  }
  {
    ByteWriter w;
    w.u8(2);
    ByteReader r(w.view());
    EXPECT_THROW(r.boolean(), SerdeError);  // invalid boolean byte
  }
  {
    // A hostile element count must be rejected before any allocation.
    ByteWriter w;
    w.u64(~0ULL);
    ByteReader r(w.view());
    EXPECT_THROW(r.length(r.u64()), SerdeError);
  }
}

// ---- value-type round-trips -------------------------------------------------

TwoPatternTest random_test(Rng& rng, std::size_t n_inputs) {
  TwoPatternTest t;
  for (std::size_t i = 0; i < n_inputs; ++i) {
    const V3 v1 = rng.coin() ? V3::One : V3::Zero;
    const V3 v3 = rng.coin() ? V3::One : V3::Zero;
    t.pi_values.push_back(Triple{v1, v1 == v3 ? v1 : V3::X, v3});
  }
  return t;
}

TEST(StoreSerde, TestSetRoundTripIsBitIdentical) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<TwoPatternTest> tests;
    const std::size_t n = rng.below(12);
    for (std::size_t i = 0; i < n; ++i) {
      tests.push_back(random_test(rng, 1 + rng.below(9)));
    }
    ByteWriter w;
    encode(w, std::span<const TwoPatternTest>(tests));
    ByteReader r(w.view());
    const std::vector<TwoPatternTest> got = store::decode_tests(r);
    EXPECT_TRUE(r.exhausted());
    ASSERT_EQ(got.size(), tests.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i].pi_values.size(), tests[i].pi_values.size());
      for (std::size_t j = 0; j < got[i].pi_values.size(); ++j) {
        EXPECT_EQ(got[i].pi_values[j], tests[i].pi_values[j]);
      }
    }
    ByteWriter w2;
    encode(w2, std::span<const TwoPatternTest>(got));
    ASSERT_EQ(w2.size(), w.size());
    EXPECT_TRUE(std::equal(w.view().begin(), w.view().end(), w2.view().begin()));
  }
}

TEST(StoreSerde, TargetSetsRoundTripIsBitIdentical) {
  Rng rng(5);
  for (int trial = 0; trial < 6; ++trial) {
    const Netlist nl = testutil::random_small_netlist(rng);
    TargetSetConfig cfg;
    cfg.n_p = 40;
    cfg.n_p0 = 8;
    const TargetSets ts = build_target_sets(nl, cfg);

    ByteWriter w;
    encode(w, ts);
    ByteReader r(w.view());
    const TargetSets back = store::decode_target_sets(r);
    EXPECT_TRUE(r.exhausted());

    EXPECT_EQ(back.p0.size(), ts.p0.size());
    EXPECT_EQ(back.p1.size(), ts.p1.size());
    EXPECT_EQ(back.i0, ts.i0);
    EXPECT_EQ(back.cutoff_length, ts.cutoff_length);
    EXPECT_EQ(back.enumerated_paths, ts.enumerated_paths);
    EXPECT_EQ(back.enumeration_truncated, ts.enumeration_truncated);

    ByteWriter w2;
    encode(w2, back);
    ASSERT_EQ(w2.size(), w.size());
    EXPECT_TRUE(std::equal(w.view().begin(), w.view().end(), w2.view().begin()));
  }
}

TEST(StoreSerde, GenerationResultRoundTripIsBitIdentical) {
  const Netlist nl = testutil::reconvergent();
  TargetSetConfig tcfg;
  tcfg.n_p = 20;
  tcfg.n_p0 = 4;
  const TargetSets ts = build_target_sets(nl, tcfg);
  const GenerationResult res = generate_tests(nl, ts.p0, ts.p1, {});

  ByteWriter w;
  encode(w, res);
  ByteReader r(w.view());
  const GenerationResult back = store::decode_generation_result(r);
  EXPECT_TRUE(r.exhausted());

  EXPECT_EQ(back.tests.size(), res.tests.size());
  EXPECT_EQ(back.detected, res.detected);
  EXPECT_EQ(back.detected_p0, res.detected_p0);
  EXPECT_EQ(back.detected_p1, res.detected_p1);
  EXPECT_EQ(back.stats.primary_attempts, res.stats.primary_attempts);
  EXPECT_EQ(back.stats.secondary_accepted, res.stats.secondary_accepted);
  EXPECT_EQ(back.stats.seconds, res.stats.seconds);  // f64 bit pattern

  ByteWriter w2;
  encode(w2, back);
  ASSERT_EQ(w2.size(), w.size());
  EXPECT_TRUE(std::equal(w.view().begin(), w.view().end(), w2.view().begin()));
}

TEST(StoreSerde, DetectionMatrixRoundTrip) {
  Rng rng(17);
  DetectionMatrix m(13, 130);  // words_per_row = 3, last word partial
  for (std::size_t f = 0; f < m.fault_count(); ++f) {
    for (std::size_t t = 0; t < m.test_count(); ++t) {
      if (rng.coin()) m.word(f, t / 64) |= std::uint64_t{1} << (t % 64);
    }
  }

  ByteWriter w;
  encode(w, m);
  ByteReader r(w.view());
  const DetectionMatrix back = store::decode_detection_matrix(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back, m);
}

TEST(StoreSerde, DetectionMatrixDecoderRejectsMalformedPayloads) {
  // Header words (faults, tests, words per row), then `words` row words.
  const auto payload = [](std::uint64_t faults, std::uint64_t tests,
                          std::uint64_t words_per_row, std::size_t words) {
    ByteWriter w;
    w.u64(faults);
    w.u64(tests);
    w.u64(words_per_row);
    for (std::size_t i = 0; i < words; ++i) w.u64(0x5A5A5A5A5A5A5A5AULL);
    return w.take();
  };
  const auto decode = [](const std::vector<std::byte>& bytes) {
    ByteReader r(bytes);
    return store::decode_detection_matrix(r);
  };

  // Well formed: 3 faults x 70 tests, 2 words per row.
  EXPECT_EQ(decode(payload(3, 70, 2, 6)).fault_count(), 3u);
  // The stride must be (tests + 63) / 64, even when the words would fit.
  EXPECT_THROW(decode(payload(3, 70, 1, 6)), SerdeError);
  // A fault count whose rows exceed the record, including one so large that
  // allocating the matrix first would fail.
  EXPECT_THROW(decode(payload(4, 70, 2, 6)), SerdeError);
  EXPECT_THROW(decode(payload(~0ULL >> 8, 70, 2, 6)), SerdeError);
  // No byte may trail the last row.
  std::vector<std::byte> trailing = payload(3, 70, 2, 6);
  trailing.push_back(std::byte{0});
  EXPECT_THROW(decode(trailing), SerdeError);
}

// ---- on-disk store ----------------------------------------------------------

TEST(StoreArtifact, PutGetRoundTrip) {
  TempDir dir;
  ArtifactStore s(dir.path);
  const ArtifactKey key{"demo", 0x0123456789ABCDEFULL};
  const std::vector<std::byte> payload = to_bytes("the record payload");

  EXPECT_FALSE(s.get(key, 1).has_value());
  ASSERT_TRUE(s.put(key, 1, payload));

  const auto got = s.get(key, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);

  // A different key of the same kind misses.
  EXPECT_FALSE(s.get(ArtifactKey{"demo", 1}, 1).has_value());
}

TEST(StoreArtifact, KindVersionMismatchIsMiss) {
  TempDir dir;
  ArtifactStore s(dir.path);
  const ArtifactKey key{"demo", 42};
  ASSERT_TRUE(s.put(key, 1, to_bytes("v1 payload")));
  EXPECT_FALSE(s.get(key, 2).has_value());
}

TEST(StoreArtifact, TruncatedFileIsMissAndQuarantined) {
  TempDir dir;
  ArtifactStore s(dir.path);
  const ArtifactKey key{"demo", 7};
  ASSERT_TRUE(s.put(key, 1, to_bytes("soon to be truncated payload")));

  const fs::path file = s.path_of(key);
  fs::resize_file(file, fs::file_size(file) - 5);

  EXPECT_FALSE(s.get(key, 1).has_value());
  EXPECT_FALSE(fs::exists(file));  // quarantined out of the slot
  EXPECT_TRUE(fs::exists(file.string() + ".corrupt"));

  // The slot heals: a fresh put round-trips again.
  ASSERT_TRUE(s.put(key, 1, to_bytes("fresh")));
  ASSERT_TRUE(s.get(key, 1).has_value());
}

TEST(StoreArtifact, OversizedPayloadClaimIsMissAndQuarantined) {
  // An intact file whose header claims far more payload than any file could
  // hold (a truncated file, which claims a few bytes more, is the test
  // above): rejected from the file size, before anything is allocated.
  TempDir dir;
  ArtifactStore s(dir.path);
  const ArtifactKey key{"demo", 11};
  ASSERT_TRUE(s.put(key, 1, to_bytes("payload of a sane size")));
  const fs::path file = s.path_of(key);
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16);  // payload size, u64 little-endian
    const std::uint64_t claim = std::uint64_t{1} << 62;
    for (int i = 0; i < 8; ++i) f.put(static_cast<char>(claim >> (8 * i)));
  }
  auto& corrupt = runtime::Metrics::global().counter("store.corrupt");
  const std::uint64_t before = corrupt.read();
  EXPECT_FALSE(s.get(key, 1).has_value());
  EXPECT_EQ(corrupt.read(), before + 1);
  EXPECT_FALSE(fs::exists(file));
  EXPECT_TRUE(fs::exists(file.string() + ".corrupt"));
}

TEST(StoreArtifact, BitFlipIsMissAndQuarantined) {
  TempDir dir;
  ArtifactStore s(dir.path);
  const ArtifactKey key{"demo", 9};
  ASSERT_TRUE(s.put(key, 1, to_bytes("payload protected by checksum")));

  const fs::path file = s.path_of(key);
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);  // inside the payload
    char c;
    f.seekg(40);
    f.get(c);
    f.seekp(40);
    f.put(static_cast<char>(c ^ 0x01));
  }

  EXPECT_FALSE(s.get(key, 1).has_value());
  EXPECT_TRUE(fs::exists(file.string() + ".corrupt"));
}

TEST(StoreConcurrency, SameKeyWritersAndReadersNeverObserveTornRecords) {
  TempDir dir;
  const ArtifactKey key{"contended", 0xABCDEFULL};

  // Each writer repeatedly publishes one of a few distinct valid payloads;
  // readers must only ever decode one of them in full (rename is atomic, the
  // checksum rejects anything else).
  std::vector<std::vector<std::byte>> valid;
  for (int i = 0; i < 4; ++i) {
    valid.push_back(to_bytes("payload variant #" + std::to_string(i) +
                             std::string(100 + 17 * i, 'x')));
  }

  // Seed the slot so readers always have a record: rename replaces the file
  // atomically, so the path is never absent once the first put lands.
  {
    ArtifactStore s(dir.path);
    ASSERT_TRUE(s.put(key, 1, valid[0]));
  }

  std::atomic<std::size_t> torn{0};
  std::atomic<std::size_t> successful_reads{0};
  std::vector<std::thread> threads;
  for (int wi = 0; wi < 4; ++wi) {
    threads.emplace_back([&, wi] {
      ArtifactStore s(dir.path);
      for (int iter = 0; iter < 50; ++iter) {
        s.put(key, 1, valid[static_cast<std::size_t>(wi)]);
      }
    });
  }
  for (int ri = 0; ri < 4; ++ri) {
    threads.emplace_back([&] {
      ArtifactStore s(dir.path);
      for (int iter = 0; iter < 200; ++iter) {
        const auto got = s.get(key, 1);
        if (!got) continue;
        successful_reads.fetch_add(1, std::memory_order_relaxed);
        bool ok = false;
        for (const auto& v : valid) ok = ok || *got == v;
        if (!ok) torn.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(successful_reads.load(), 0u);

  // After the dust settles the slot holds one complete record.
  ArtifactStore s(dir.path);
  const auto final_read = s.get(key, 1);
  ASSERT_TRUE(final_read.has_value());
  bool ok = false;
  for (const auto& v : valid) ok = ok || *final_read == v;
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace pdf
