// Fuzz tests that live in tier 1.
//
// Two families:
//   * robustness fuzzing of the text front ends — whatever bytes arrive, the
//     parsers either produce a valid object or throw std::runtime_error /
//     std::invalid_argument, never crash, never return a half-built netlist;
//   * differential fuzzing of the engines against the brute-force oracle in
//     src/oracle/ — the same ground truth tools/pdf_check uses, at a small
//     default iteration count so the suite stays fast. Set PDF_FUZZ_ITERS to
//     scale the engine fuzz up (e.g. PDF_FUZZ_ITERS=2000 ctest -R Fuzz).
#include <gtest/gtest.h>

#include <cstdlib>

#include "atpg/test_io.hpp"
#include "base/rng.hpp"
#include "faults/requirements.hpp"
#include "faults/screen.hpp"
#include "gen/registry.hpp"
#include "netlist/bench_io.hpp"
#include "oracle/oracle.hpp"
#include "paths/enumerate.hpp"
#include "sim/triple_sim.hpp"
#include "testutil/circuits.hpp"

namespace pdf {
namespace {

int fuzz_iters(int default_iters) {
  const char* env = std::getenv("PDF_FUZZ_ITERS");
  if (env == nullptr) return default_iters;
  const int n = std::atoi(env);
  return n > 0 ? n : default_iters;
}

std::string random_text(Rng& rng, std::size_t max_len) {
  static const char alphabet[] =
      "abcGIN OUTPUTDFFANDORX=(),\n\t#0123456789/";
  std::string s;
  const std::size_t len = rng.below(max_len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
  }
  return s;
}

// Structured mutations of a valid file find deeper paths than pure noise.
std::string mutate(const std::string& base, Rng& rng) {
  std::string s = base;
  const int op = static_cast<int>(rng.below(4));
  if (s.empty()) return s;
  const std::size_t pos = rng.below(s.size());
  switch (op) {
    case 0: s.erase(pos, 1 + rng.below(4)); break;
    case 1: s.insert(pos, random_text(rng, 6)); break;
    case 2: s[pos] = static_cast<char>('!' + rng.below(90)); break;
    default: {  // duplicate a random slice
      const std::size_t from = rng.below(s.size());
      s.insert(pos, s.substr(from, rng.below(12)));
      break;
    }
  }
  return s;
}

TEST(Fuzz, BenchParserNeverCrashes) {
  Rng rng(0xfeedbeef);
  const std::string base = s27_bench_text();
  for (int iter = 0; iter < 600; ++iter) {
    const std::string text =
        iter % 3 == 0 ? random_text(rng, 200) : mutate(base, rng);
    try {
      const Netlist nl = parse_bench_string(text);
      // If it parsed, the result must be a coherent finalized netlist.
      EXPECT_TRUE(nl.finalized());
      for (NodeId id = 0; id < nl.node_count(); ++id) {
        for (NodeId f : nl.node(id).fanin) EXPECT_LT(f, nl.node_count());
      }
    } catch (const std::runtime_error&) {
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(Fuzz, TestFileParserNeverCrashes) {
  const Netlist nl = benchmark_circuit("s27");
  const std::string base =
      "circuit s27\ninputs G0 G1 G2 G3 G5 G6 G7\ntest 0011010/1111010\n";
  Rng rng(0xabcdef);
  for (int iter = 0; iter < 600; ++iter) {
    const std::string text =
        iter % 3 == 0 ? random_text(rng, 160) : mutate(base, rng);
    try {
      const auto tests = tests_from_string(text, nl);
      for (const auto& t : tests) {
        EXPECT_EQ(t.pi_values.size(), nl.inputs().size());
      }
    } catch (const std::runtime_error&) {
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(Fuzz, SimulationMatchesOracle) {
  Rng rng(0x51f0);
  const int iters = fuzz_iters(40);
  for (int iter = 0; iter < iters; ++iter) {
    const Netlist nl = testutil::random_small_netlist(rng);
    for (int t = 0; t < 4; ++t) {
      const TwoPatternTest test =
          testutil::random_two_pattern_test(rng, nl.inputs().size());
      const std::vector<Triple> prod = simulate(nl, test.pi_values);
      const std::vector<Triple> ref = oracle::simulate(nl, test.pi_values);
      ASSERT_EQ(prod.size(), ref.size());
      for (NodeId id = 0; id < nl.node_count(); ++id) {
        ASSERT_EQ(prod[id], ref[id])
            << "node " << nl.node(id).name << " iter " << iter;
      }
    }
  }
}

TEST(Fuzz, PathEnumerationMatchesOracle) {
  Rng rng(0x9a75);
  const int iters = fuzz_iters(40);
  for (int iter = 0; iter < iters; ++iter) {
    const Netlist nl = testutil::random_small_netlist(rng);
    std::vector<oracle::RefPath> ref;
    try {
      ref = oracle::all_complete_paths(nl, 20'000);
    } catch (const std::runtime_error&) {
      continue;  // path explosion: skip, pdf_check covers these via caps too
    }
    const LineDelayModel dm(nl);
    EnumerationConfig cfg;
    cfg.max_faults = 2 * ref.size() + 16;
    const EnumerationResult full = enumerate_longest_paths(dm, cfg);
    ASSERT_EQ(full.paths.size(), ref.size()) << "iter " << iter;
    for (std::size_t i = 0; i < full.paths.size(); ++i) {
      EXPECT_EQ(full.paths[i].length, ref[i].length) << "iter " << iter;
    }
  }
}

TEST(Fuzz, RequirementsMatchOracle) {
  Rng rng(0xab5e);
  const int iters = fuzz_iters(40);
  for (int iter = 0; iter < iters; ++iter) {
    const Netlist nl = testutil::random_small_netlist(rng);
    std::vector<oracle::RefPath> ref;
    try {
      ref = oracle::all_complete_paths(nl, 5'000);
    } catch (const std::runtime_error&) {
      continue;
    }
    const std::size_t n_paths = std::min<std::size_t>(ref.size(), 30);
    for (std::size_t p = 0; p < n_paths; ++p) {
      for (const bool rising : {true, false}) {
        PathDelayFault f;
        f.path.nodes = ref[p].nodes;
        f.rising_source = rising;
        f.length = ref[p].length;
        const FaultRequirements prod =
            build_requirements(nl, f, Sensitization::Robust);
        const oracle::RefRequirements want =
            oracle::requirements_by_definition(nl, f);
        ASSERT_EQ(prod.conflicting, want.conflicting)
            << fault_to_string(nl, f) << " iter " << iter;
        if (!prod.conflicting) {
          ASSERT_EQ(prod.values, want.values)
              << fault_to_string(nl, f) << " iter " << iter;
        }
      }
    }
  }
}

TEST(Fuzz, FaultSimulationMatchesOracle) {
  Rng rng(0xfa57);
  const int iters = fuzz_iters(40);
  for (int iter = 0; iter < iters; ++iter) {
    const Netlist nl = testutil::random_small_netlist(rng);
    std::vector<oracle::RefPath> ref;
    try {
      ref = oracle::all_complete_paths(nl, 5'000);
    } catch (const std::runtime_error&) {
      continue;
    }
    std::vector<TargetFault> targets;
    std::vector<PathDelayFault> kept;
    const std::size_t n_paths = std::min<std::size_t>(ref.size(), 30);
    for (std::size_t p = 0; p < n_paths; ++p) {
      for (const bool rising : {true, false}) {
        PathDelayFault f;
        f.path.nodes = ref[p].nodes;
        f.rising_source = rising;
        f.length = ref[p].length;
        FaultRequirements reqs = build_requirements(nl, f, Sensitization::Robust);
        if (reqs.conflicting) continue;
        targets.push_back(TargetFault{f, std::move(reqs.values)});
        kept.push_back(f);
      }
    }
    if (targets.empty()) continue;
    std::vector<TwoPatternTest> tests;
    for (int t = 0; t < 6; ++t) {
      tests.push_back(
          testutil::random_two_pattern_test(rng, nl.inputs().size()));
    }
    const std::vector<bool> prod = testutil::detected_by_any(nl, tests, targets);
    const std::vector<bool> want = oracle::detects_any(nl, tests, kept);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      EXPECT_EQ(prod[i], want[i])
          << fault_to_string(nl, kept[i]) << " iter " << iter;
    }
  }
}

TEST(Fuzz, ValidPrefixPlusGarbageIsRejectedCleanly) {
  // A well-formed file with trailing binary garbage must not corrupt the
  // already-parsed part silently: the parser throws.
  const std::string text = s27_bench_text() + "\n\x01\x02garbage(\n";
  EXPECT_THROW(parse_bench_string(text), std::runtime_error);
}

}  // namespace
}  // namespace pdf
