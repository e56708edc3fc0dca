#include "atpg/post_compact.hpp"

#include <gtest/gtest.h>

#include "enrich/enrichment.hpp"
#include "gen/registry.hpp"
#include "testutil/circuits.hpp"

namespace pdf {
namespace {

struct Fixture {
  Netlist nl;
  TargetSets sets;
  GenerationResult gen;
  explicit Fixture(const std::string& name) : nl(benchmark_circuit(name)) {
    TargetSetConfig cfg;
    cfg.n_p = 800;
    cfg.n_p0 = 120;
    sets = build_target_sets(nl, cfg);
    gen = generate_tests(nl, sets.p0, sets.p1, {});
  }
};

TEST(PostCompact, CoveragePreservedExactly) {
  Fixture fx("b03_like");
  const PostCompactionResult pc =
      post_compact(fx.nl, fx.gen.tests, fx.sets.p0, fx.sets.p1);
  EXPECT_LE(pc.tests.size(), fx.gen.tests.size());
  EXPECT_EQ(pc.tests.size() + pc.dropped, fx.gen.tests.size());

  // Checked with the per-test scalar path: post_compact itself runs on
  // BatchSimulator.
  EXPECT_EQ(testutil::detected_by_any(fx.nl, pc.tests, fx.sets.p0),
            testutil::detected_by_any(fx.nl, fx.gen.tests, fx.sets.p0));
  EXPECT_EQ(testutil::detected_by_any(fx.nl, pc.tests, fx.sets.p1),
            testutil::detected_by_any(fx.nl, fx.gen.tests, fx.sets.p1));
}

TEST(PostCompact, KeptIndicesAscendingAndConsistent) {
  Fixture fx("b09_like");
  const PostCompactionResult pc =
      post_compact(fx.nl, fx.gen.tests, fx.sets.p0, fx.sets.p1);
  ASSERT_EQ(pc.kept_indices.size(), pc.tests.size());
  for (std::size_t i = 0; i + 1 < pc.kept_indices.size(); ++i) {
    EXPECT_LT(pc.kept_indices[i], pc.kept_indices[i + 1]);
  }
  for (std::size_t i = 0; i < pc.kept_indices.size(); ++i) {
    EXPECT_EQ(pc.tests[i].pi_values,
              fx.gen.tests[pc.kept_indices[i]].pi_values);
  }
}

TEST(PostCompact, EveryKeptTestIsEssentialInReverseOrder) {
  // Invariant of the reverse pass: each kept test detects a fault no
  // later-kept test detects.
  Fixture fx("b03_like");
  const PostCompactionResult pc =
      post_compact(fx.nl, fx.gen.tests, fx.sets.p0, fx.sets.p1);
  const std::span<const TwoPatternTest> tests = pc.tests;
  for (std::size_t i = 0; i < tests.size(); ++i) {
    const auto with0 =
        testutil::detected_by_any(fx.nl, tests.subspan(i, 1), fx.sets.p0);
    const auto with1 =
        testutil::detected_by_any(fx.nl, tests.subspan(i, 1), fx.sets.p1);
    const auto later0 =
        testutil::detected_by_any(fx.nl, tests.subspan(i + 1), fx.sets.p0);
    const auto later1 =
        testutil::detected_by_any(fx.nl, tests.subspan(i + 1), fx.sets.p1);
    bool essential = false;
    for (std::size_t f = 0; f < with0.size(); ++f) {
      if (with0[f] && !later0[f]) essential = true;
    }
    for (std::size_t f = 0; f < with1.size(); ++f) {
      if (with1[f] && !later1[f]) essential = true;
    }
    EXPECT_TRUE(essential) << "test " << i;
  }
}

TEST(PostCompact, DuplicateTestsAreDropped) {
  Fixture fx("b09_like");
  std::vector<TwoPatternTest> doubled = fx.gen.tests;
  doubled.insert(doubled.end(), fx.gen.tests.begin(), fx.gen.tests.end());
  const PostCompactionResult pc =
      post_compact(fx.nl, doubled, fx.sets.p0, fx.sets.p1);
  EXPECT_LE(pc.tests.size(), fx.gen.tests.size());
  EXPECT_GE(pc.dropped, fx.gen.tests.size());
}

TEST(PostCompact, EmptyInputs) {
  Fixture fx("b09_like");
  const PostCompactionResult none = post_compact(fx.nl, {}, fx.sets.p0);
  EXPECT_TRUE(none.tests.empty());
  const PostCompactionResult no_faults =
      post_compact(fx.nl, fx.gen.tests, {}, {});
  EXPECT_TRUE(no_faults.tests.empty());
  EXPECT_EQ(no_faults.dropped, fx.gen.tests.size());
}

}  // namespace
}  // namespace pdf
