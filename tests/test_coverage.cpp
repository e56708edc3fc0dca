#include "report/coverage.hpp"

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "enrich/enrichment.hpp"
#include "gen/registry.hpp"

namespace pdf {
namespace {

struct Fixture {
  Netlist nl = benchmark_circuit("b03_like");
  TargetSets sets;
  GenerationResult gen;
  Fixture() {
    TargetSetConfig cfg;
    cfg.n_p = 800;
    cfg.n_p0 = 120;
    sets = build_target_sets(nl, cfg);
    gen = generate_tests(nl, sets.p0, sets.p1, {});
  }
};

TEST(Coverage, TotalsMatchDetectionFlags) {
  Fixture fx;
  const CoverageBreakdown b = coverage_by_length(fx.sets.p0, fx.gen.detected_p0);
  EXPECT_EQ(b.total, fx.sets.p0.size());
  EXPECT_EQ(b.detected, fx.gen.detected_p0_count());
  std::size_t total = 0, det = 0;
  for (const auto& bucket : b.buckets) {
    total += bucket.total;
    det += bucket.detected;
    EXPECT_LE(bucket.detected, bucket.total);
    EXPECT_GE(bucket.ratio(), 0.0);
    EXPECT_LE(bucket.ratio(), 1.0);
  }
  EXPECT_EQ(total, b.total);
  EXPECT_EQ(det, b.detected);
}

TEST(Coverage, BucketsDescendByLength) {
  Fixture fx;
  const CoverageBreakdown b = coverage_by_length(fx.sets.p1, fx.gen.detected_p1);
  for (std::size_t i = 0; i + 1 < b.buckets.size(); ++i) {
    EXPECT_GT(b.buckets[i].length, b.buckets[i + 1].length);
  }
}

TEST(Coverage, SimulationOverloadAgrees) {
  Fixture fx;
  const CoverageBreakdown from_flags =
      coverage_by_length(fx.sets.p0, fx.gen.detected_p0);
  const CoverageBreakdown from_sim =
      coverage_by_length(fx.nl, fx.gen.tests, fx.sets.p0);
  ASSERT_EQ(from_flags.buckets.size(), from_sim.buckets.size());
  for (std::size_t i = 0; i < from_flags.buckets.size(); ++i) {
    EXPECT_EQ(from_flags.buckets[i].detected, from_sim.buckets[i].detected);
    EXPECT_EQ(from_flags.buckets[i].total, from_sim.buckets[i].total);
  }
}

TEST(Coverage, SummaryRendering) {
  Fixture fx;
  const CoverageBreakdown b = coverage_by_length(fx.sets.p0, fx.gen.detected_p0);
  const std::string s = coverage_summary(b, 3);
  EXPECT_NE(s.find("L="), std::string::npos);
  if (b.buckets.size() > 3) {
    EXPECT_NE(s.find("..."), std::string::npos);
  }
}

TEST(Coverage, SizeMismatchThrows) {
  Fixture fx;
  std::vector<bool> wrong(fx.sets.p0.size() + 1, false);
  EXPECT_THROW(coverage_by_length(fx.sets.p0, wrong), std::invalid_argument);
}

TEST(Coverage, EmptyFaultList) {
  const CoverageBreakdown b =
      coverage_by_length(std::span<const TargetFault>{}, std::vector<bool>{});
  EXPECT_EQ(b.total, 0u);
  EXPECT_EQ(b.ratio(), 0.0);
  EXPECT_TRUE(b.buckets.empty());
}

TEST(Coverage, SequentialNetlistIsRejectedForAnyTestSet) {
  // The simulating overload needs a combinational netlist; a sequential one
  // gets the same typed error whether or not there is anything to simulate.
  Netlist nl("seq");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId ff = nl.add_gate("ff", GateType::Dff, {a});
  nl.mark_output(nl.add_gate("z", GateType::And, {ff, b}));
  nl.finalize();
  ASSERT_TRUE(nl.has_sequential());
  TwoPatternTest t;
  t.pi_values.assign(nl.inputs().size(), kRise);
  const std::vector<TwoPatternTest> one = {t};
  for (const std::span<const TwoPatternTest> tests :
       {std::span<const TwoPatternTest>{}, std::span<const TwoPatternTest>(one)}) {
    try {
      (void)coverage_by_length(nl, tests, std::span<const TargetFault>{});
      ADD_FAILURE() << "no error for " << tests.size() << " tests";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("sequential"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace pdf
