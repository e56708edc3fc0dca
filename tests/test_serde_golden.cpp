// Golden-file regression tests for the artifact store's serialized formats.
//
// Every versioned Serde<T> format has a tiny committed artifact under
// tests/golden/<kind>_v<version>.bin, encoded from the hand-built fixture
// value in this file. The tests pin two properties:
//   * encoding stability — encoding the fixture today produces byte-for-byte
//     the committed artifact (so a cache written by an old build stays
//     readable: same version implies same bytes);
//   * decoding fidelity — decoding the committed bytes and re-encoding
//     reproduces them exactly.
// The netlist and test-set encodings are never stored as records, but
// digest() hashes their bytes into every store key, so they are pinned the
// same way (encoding stability only; nothing decodes them).
// Any intentional layout change must bump Serde<T>::version (which renames
// the expected golden file) and regenerate:
//   PDF_REGEN_GOLDEN=1 ./pathdelay_tests --gtest_filter='SerdeGolden.*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "store/serde.hpp"
#include "testutil/circuits.hpp"

namespace pdf {
namespace {

using store::ByteReader;
using store::ByteWriter;
using store::Serde;

std::string golden_path(std::string_view kind, std::uint16_t version) {
  return std::string(PDF_GOLDEN_DIR) + "/" + std::string(kind) + "_v" +
         std::to_string(version) + ".bin";
}

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) ADD_FAILURE() << "missing golden file " << path;
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  return {reinterpret_cast<const std::byte*>(raw.data()),
          reinterpret_cast<const std::byte*>(raw.data() + raw.size())};
}

/// Compares encoded bytes against the committed artifact for (kind, version)
/// — or rewrites the artifact when PDF_REGEN_GOLDEN is set (after an
/// intentional version bump) and skips the test.
void check_encoding(std::string_view kind, std::uint16_t version,
                    const ByteWriter& w) {
  const std::string path = golden_path(kind, version);

  if (std::getenv("PDF_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out.write(reinterpret_cast<const char*>(w.view().data()),
              static_cast<std::streamsize>(w.size()));
    GTEST_SKIP() << "regenerated " << path;
  }

  const std::vector<std::byte> golden = read_file(path);
  ASSERT_EQ(w.size(), golden.size())
      << "encoded size of " << kind << " v" << version
      << " changed; bump the version and regenerate the golden file";
  EXPECT_TRUE(std::equal(golden.begin(), golden.end(), w.view().begin()))
      << "encoding of " << kind << " v" << version
      << " drifted from the committed artifact";
}

/// check_encoding for a Serde<T> record kind, then decodes the committed
/// bytes and re-encodes them: must reproduce them exactly.
template <typename T, typename Decode>
void check_golden(const T& fixture, Decode decode) {
  ByteWriter w;
  Serde<T>::put(w, fixture);
  check_encoding(Serde<T>::kind, Serde<T>::version, w);
  if (::testing::Test::IsSkipped() || ::testing::Test::HasFatalFailure()) return;

  const std::vector<std::byte> golden =
      read_file(golden_path(Serde<T>::kind, Serde<T>::version));
  ByteReader r(golden);
  const T decoded = decode(r);
  ByteWriter w2;
  Serde<T>::put(w2, decoded);
  ASSERT_EQ(w2.size(), golden.size());
  EXPECT_TRUE(std::equal(golden.begin(), golden.end(), w2.view().begin()))
      << "decode/re-encode of " << std::string(Serde<T>::kind)
      << " is not byte-stable";
}

// ---- hand-built fixtures (never produced by engines, so golden tests break
// ---- only on format changes, not on engine behavior changes) --------------

std::vector<TwoPatternTest> fixture_tests() {
  TwoPatternTest t1;
  t1.pi_values = {Triple{V3::Zero, V3::X, V3::One},
                  Triple{V3::One, V3::One, V3::One},
                  Triple{V3::One, V3::X, V3::Zero}};
  TwoPatternTest t2;
  t2.pi_values = {Triple{V3::Zero, V3::Zero, V3::Zero},
                  Triple{V3::X, V3::X, V3::X},
                  Triple{V3::One, V3::X, V3::Zero}};
  return {t1, t2};
}

TargetFault fixture_target_fault() {
  TargetFault tf;
  tf.fault.path.nodes = {0, 3, 4};  // a -> y -> z in tiny_and_or
  tf.fault.rising_source = true;
  tf.fault.length = 5;
  tf.requirements = {
      ValueRequirement{0, Triple{V3::Zero, V3::X, V3::One}},
      ValueRequirement{1, Triple{V3::One, V3::One, V3::One}},
      ValueRequirement{2, Triple{V3::X, V3::X, V3::Zero}},
  };
  return tf;
}

TargetSets fixture_target_sets() {
  TargetSets ts;
  ts.p0 = {fixture_target_fault()};
  TargetFault other = fixture_target_fault();
  other.fault.rising_source = false;
  other.fault.length = 3;
  ts.p1 = {other};
  ts.i0 = 1;
  ts.cutoff_length = 5;
  ts.profile = LengthProfile({5, 5, 3});
  ts.screen.input_faults = 6;
  ts.screen.conflict_dropped = 1;
  ts.screen.implication_dropped = 2;
  ts.screen.kept = 3;
  ts.enumerated_paths = 3;
  ts.enumeration_truncated = false;
  return ts;
}

GenerationResult fixture_generation_result() {
  GenerationResult g;
  g.tests = fixture_tests();
  g.detected = {{true, false, true}, {false, true}};
  g.detected_p0 = g.detected[0];
  g.detected_p1 = g.detected[1];
  g.primary_targets = {0, 2};
  g.stats.primary_attempts = 3;
  g.stats.primary_failures = 1;
  g.stats.secondary_accepted = 2;
  g.stats.secondary_rejected = 4;
  g.stats.justify.attempts = 5;
  g.stats.justify.probes = 6;
  g.stats.justify.passes = 7;
  g.stats.justify.decisions = 8;
  g.stats.justify.successes = 9;
  g.stats.justify.failures = 10;
  g.stats.seconds = 0.25;
  return g;
}

TEST(SerdeGolden, Netlist) {
  ByteWriter w;
  store::encode(w, testutil::tiny_and_or());
  check_encoding("netlist", 1, w);
}

TEST(SerdeGolden, TestSet) {
  const std::vector<TwoPatternTest> tests = fixture_tests();
  ByteWriter w;
  store::encode(w, std::span<const TwoPatternTest>(tests));
  check_encoding("test_set", 1, w);
}

TEST(SerdeGolden, TargetSets) {
  check_golden(fixture_target_sets(), store::decode_target_sets);
}

TEST(SerdeGolden, GenerationResult) {
  check_golden(fixture_generation_result(), store::decode_generation_result);
}

TEST(SerdeGolden, UnionCoverage) {
  UnionCoverage c;
  c.p0_detected = 3;
  c.p1_detected = 1;
  c.p0_total = 5;
  c.p1_total = 7;
  check_golden(c, store::decode_union_coverage);
}

TEST(SerdeGolden, DetectionMatrix) {
  DetectionMatrix m(2, 3);
  m.word(0, 0) = 0b101;  // fault 0 detected by tests 0 and 2
  m.word(1, 0) = 0b010;  // fault 1 detected by test 1
  check_golden(m, store::decode_detection_matrix);
}

// A version bump without a matching fixture/golden refresh should not pass
// silently: pin the versions the committed artifacts were generated at.
static_assert(Serde<TargetSets>::version == 1);
static_assert(Serde<GenerationResult>::version == 2);
static_assert(Serde<UnionCoverage>::version == 1);
static_assert(Serde<DetectionMatrix>::version == 1);

}  // namespace
}  // namespace pdf
