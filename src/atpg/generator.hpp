// Test generation with dynamic compaction and (optionally) a second set of
// target faults — the engine behind both the basic procedure (Section 2) and
// the enrichment procedure (Section 3.2).
//
// One call generates a complete test set for the primary target set P0:
//   * a primary target fault is chosen from P0 (by the heuristic's order) and
//     justified; failures mark the fault as tried and move on;
//   * secondary target faults are added one at a time: a candidate is
//     accepted if a test satisfying the union of requirements of everything
//     in P(t) plus the candidate can be generated (the test is re-generated
//     from scratch on every acceptance, as in the paper's adaptation of the
//     primary/secondary scheme to fully specified tests);
//   * with a second target set P1 (enrichment), secondaries are drawn from
//     P1 only after every eligible P0 candidate has been considered; P1
//     faults are never primaries, so the test count is determined by P0;
//   * after a test is finalized it is fault-simulated against every
//     still-undetected fault of both sets and detected faults are dropped.
//
// Secondary-selection heuristics (Section 2.2): none (uncomp), arbitrary,
// length-based, value-based (minimum n_Delta).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/justify.hpp"
#include "atpg/test_pattern.hpp"
#include "faults/screen.hpp"
#include "netlist/netlist.hpp"

namespace pdf {

enum class CompactionHeuristic {
  None,       // "uncomp": primaries only
  Arbitrary,  // "arbit": fault-list order
  Length,     // "length": longest path first
  Value,      // "values": fewest new required values first
};

const char* heuristic_name(CompactionHeuristic h);

struct GeneratorConfig {
  CompactionHeuristic heuristic = CompactionHeuristic::Value;
  std::uint64_t seed = 1;
  JustifyConfig justify{};
  /// Stop offering secondary candidates for the current test after this many
  /// consecutive rejections (0 = consider every candidate, as in the paper).
  std::size_t max_consecutive_secondary_failures = 0;
  /// Use the complete branch-and-bound justifier instead of the paper's
  /// greedy simulation-based one (the paper's suggested variance-free
  /// alternative). Slower; results become independent of the value-decision
  /// randomness.
  bool use_branch_and_bound = false;
  BnbConfig bnb{};
};

struct GenerationStats {
  std::size_t primary_attempts = 0;
  std::size_t primary_failures = 0;
  std::size_t secondary_accepted = 0;
  std::size_t secondary_rejected = 0;
  JustifyStats justify;
  double seconds = 0.0;
};

struct GenerationResult {
  std::vector<TwoPatternTest> tests;
  /// Per-set detection flags, indexed like the input spans. detected[0] is
  /// the must-detect set; detected[k], k >= 1, the opportunistic sets.
  std::vector<std::vector<bool>> detected;
  /// Aliases of detected[0] / detected[1] kept for the common two-set case
  /// (detected_p1 is empty when only one set was passed).
  std::vector<bool> detected_p0;
  std::vector<bool> detected_p1;
  /// tests[i] was generated for sets[0]'s fault primary_targets[i] (an index
  /// into the p0 span). Lets checkers verify the metamorphic invariant that
  /// every generated test robustly detects the fault it was built for.
  std::vector<std::size_t> primary_targets;
  GenerationStats stats;

  std::size_t detected_p0_count() const;
  std::size_t detected_p1_count() const;
  std::size_t detected_count(std::size_t set) const;
};

/// Generates tests for `p0`, opportunistically detecting `p1` (pass an empty
/// span for the basic single-set procedure). The netlist must be finalized,
/// combinational and primitive-only.
GenerationResult generate_tests(const Netlist& nl,
                                std::span<const TargetFault> p0,
                                std::span<const TargetFault> p1,
                                const GeneratorConfig& cfg = {});

/// Generalization to any number of target subsets (the paper's "larger
/// number of subsets" remark): sets[0] supplies the primary targets and
/// determines the test count; sets[k] is offered for secondary detection
/// only after every eligible candidate of sets[0..k-1] has been considered.
GenerationResult generate_tests_multi(
    const Netlist& nl, std::span<const std::span<const TargetFault>> sets,
    const GeneratorConfig& cfg = {});

}  // namespace pdf
