// Brute-force reference implementations ("the oracle") for differential
// testing of every production engine.
//
// Everything in this namespace is written for readability and obvious
// correctness, not speed: recursion instead of flattened arrays, std::map
// instead of sorted vectors, and gate evaluation by enumerating binary
// completions instead of the hand-derived three-valued algebra. None of it
// shares code with the engines under test — the only common ground is the
// Netlist structure and the plain value types (V3, Triple, Path,
// PathDelayFault, TwoPatternTest), so a bug in the compiled execution core,
// the triple algebra, the enumerator's pruning, or the coverage accounting
// cannot cancel out of a comparison.
//
// Semantics implemented from the paper's definitions (validated against its
// s27 worked example):
//   * Section 2.1 — the two-pattern triple of a line is (value under the
//     first pattern, hazard-conservative intermediate value, value under the
//     second pattern); the intermediate plane is the three-valued simulation
//     in which every transitioning input is unknown.
//   * Section 2.1 — a test robustly detects a path delay fault iff it
//     satisfies every value requirement in A(p); A(p) is re-derived here
//     directly from the definition (launch transition, steady non-controlling
//     side inputs under transitions-to-controlling, final-only non-controlling
//     otherwise, implied on-path transitions).
//   * Section 2.1 — justification assigns PI pattern bits greedily: probe
//     every unspecified bit with 0 and 1, keep the value whose opposite
//     conflicts with A, then decide one bit at random, with no backtracking.
//   * Section 3.1 — the length of a path counts the lines it crosses: each
//     node's output stem plus a branch line wherever the driver has more than
//     one consumer (a primary-output tap counts as a consumer).
//
// Intended for circuits of tens of gates; `find_robust_test` enumerates all
// 4^n two-pattern input pairs and refuses more than `max_inputs` PIs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "atpg/justify.hpp"
#include "atpg/test_pattern.hpp"
#include "base/rng.hpp"
#include "base/triple.hpp"
#include "faults/fault.hpp"
#include "faults/requirements.hpp"
#include "faults/screen.hpp"
#include "netlist/netlist.hpp"

namespace pdf::oracle {

// ---- definitional simulation (ref_sim.cpp) ---------------------------------

/// Three-valued gate evaluation by enumerating every binary completion of the
/// x fanins: the result is v when all completions evaluate to v, x otherwise.
/// Throws std::invalid_argument for non-logic types or more than 20 unknowns.
V3 eval_gate_definitional(GateType t, std::span<const V3> fanin);

/// Single-plane three-valued simulation by memoized recursion from the
/// outputs. `pi_values[i]` belongs to nl.inputs()[i]. Returns one value per
/// node. The netlist must be finalized and combinational.
std::vector<V3> simulate_plane(const Netlist& nl, std::span<const V3> pi_values);

/// Two-pattern (triple) simulation from the definition: plane 1 and plane 3
/// are independent simulations of the pattern values; the intermediate plane
/// simulates with every transitioning PI unknown. Returns one triple per node.
std::vector<Triple> simulate(const Netlist& nl, std::span<const Triple> pi_values);

// ---- exhaustive path enumeration (ref_paths.cpp) ---------------------------

struct RefPath {
  std::vector<NodeId> nodes;
  int length = 0;
};

/// Number of consumers of a node's output, recomputed from every fanin list
/// (per occurrence) plus one when the node is a (pseudo) primary output.
int consumers(const Netlist& nl, NodeId id);

/// Length in lines of a complete input-to-output path, from the definition:
/// one stem per node, plus a branch line after every node (including the
/// last) that has more than one consumer.
int complete_path_length(const Netlist& nl, std::span<const NodeId> nodes);

/// Every structural input-to-output path, found by naive recursion, sorted by
/// descending length (ties in discovery order). Throws std::runtime_error
/// when the circuit has more than `cap` paths.
std::vector<RefPath> all_complete_paths(const Netlist& nl,
                                        std::size_t cap = 1'000'000);

// ---- robust detection from the definition (ref_detect.cpp) -----------------

struct RefRequirements {
  /// Merged requirements in ascending line order (same shape as
  /// FaultRequirements::values so differential tests can compare directly).
  std::vector<ValueRequirement> values;
  /// Some line received two contradictory specified values: the fault is
  /// provably undetectable. The kept value is the first one assigned,
  /// mirroring the production merge rule.
  bool conflicting = false;
};

/// Independently re-derives A(p) for a robust test of `f` by walking the
/// path. Throws std::invalid_argument on structurally invalid paths.
RefRequirements requirements_by_definition(const Netlist& nl,
                                           const PathDelayFault& f);

/// True when the definitional simulation of `t` satisfies every component of
/// every requirement in A(f): for each plane, a specified requirement demands
/// exactly that simulated value (an unknown simulated value satisfies
/// nothing). Conflicting requirement sets are never satisfied.
bool detects(const Netlist& nl, const TwoPatternTest& t, const PathDelayFault& f);

/// Exhaustively enumerates all 4^n binary two-pattern tests and returns the
/// first one that robustly detects `f`, or nullopt when none exists (the
/// fault is untestable). Throws std::invalid_argument when the circuit has
/// more than `max_inputs` PIs.
std::optional<TwoPatternTest> find_robust_test(const Netlist& nl,
                                               const PathDelayFault& f,
                                               std::size_t max_inputs = 12);

/// Per-fault flag: detected by at least one test in `tests`.
std::vector<bool> detects_any(const Netlist& nl,
                              std::span<const TwoPatternTest> tests,
                              std::span<const PathDelayFault> faults);

// ---- set-based coverage accounting (ref_coverage.cpp) ----------------------

/// Number of faults detected by at least one test.
std::size_t count_detected(const Netlist& nl,
                           std::span<const TwoPatternTest> tests,
                           std::span<const PathDelayFault> faults);

struct RefCoverageBucket {
  int length = 0;
  std::size_t total = 0;
  std::size_t detected = 0;
};

/// Detection counts bucketed by fault path length, descending length order.
std::vector<RefCoverageBucket> coverage_by_length(
    const Netlist& nl, std::span<const TwoPatternTest> tests,
    std::span<const PathDelayFault> faults);

// ---- per-fault screening (ref_screen.cpp) ----------------------------------

/// The screen of `pdf::screen_faults` one fault at a time: screen (1) by
/// `build_requirements`, then screen (2) as one
/// `ImplicationEngine::contradicts()` closure per fault. Unlike the rest of
/// this namespace it reuses those two production routines: it is the
/// reference for the lane-batched closure, whose kept faults, order,
/// requirement bytes and `stats` must equal these.
std::vector<TargetFault> screen_faults(const Netlist& nl,
                                       std::span<const PathDelayFault> faults,
                                       ScreenStats& stats,
                                       Sensitization sens = Sensitization::Robust);

// ---- secondary-target selection (ref_select.cpp) ---------------------------

/// The n_Delta of the value-based compaction heuristic, from the definition:
/// the number of requirements in `want` not already guaranteed by `have`
/// (a requirement is guaranteed when `have` assigns its line a triple whose
/// specified components include every specified component of the
/// requirement). `have` holds distinct lines in any order.
std::size_t delta_count(std::span<const ValueRequirement> have,
                        std::span<const ValueRequirement> want);

/// True when some requirement of `want` specifies a component that `have`
/// specifies differently on the same line.
bool conflicts(std::span<const ValueRequirement> have,
               std::span<const ValueRequirement> want);

/// `have` plus every requirement of `want`, component by component (a
/// specified value fills an unknown one), one entry per line in ascending
/// line order. Precondition: !conflicts(have, want).
std::vector<ValueRequirement> merge(std::span<const ValueRequirement> have,
                                    std::span<const ValueRequirement> want);

/// The value-based secondary choice (paper Section 2.2), naively: visiting
/// `order`, the first fault with eligible[i] set whose delta_count against
/// `have` is minimal. Returns static_cast<std::size_t>(-1) when no fault is
/// eligible.
std::size_t pick_secondary(std::span<const ValueRequirement> have,
                           std::span<const TargetFault> faults,
                           std::span<const std::size_t> order,
                           const std::vector<bool>& eligible);

// ---- simulation-based justification (ref_justify.cpp) ----------------------

/// One pattern-bit assignment made by `justify`, in the order it was made.
struct JustifyEvent {
  enum class Kind { Forced, Decision, Fill };
  Kind kind;
  int attempt;        // 0-based attempt within the call
  std::uint64_t pass; // 1-based necessary-value pass of the attempt
  std::size_t input;  // index into nl.inputs()
  int plane;          // 0 = first pattern, 2 = second pattern
  V3 value;
};

/// The paper's greedy justification of `reqs` (a conflict-free requirement
/// list) with one full `simulate` per probe and no implication seeding. Per
/// attempt: start from all-x PIs; probe every unspecified PI bit in the
/// structural support of the required lines (ascending input, first pattern
/// then second) with 0 and 1 — both conflicting fails the attempt, exactly
/// one forces the other value — until a pass forces nothing; then decide
/// (the first half-specified input is made steady, otherwise a random free
/// support bit gets a random value) and repeat. Bits outside the support
/// get random values last. Draws from `rng` exactly as
/// `JustificationEngine` with `use_implication_seed = false` and
/// `max_attempts` does, and counts into `stats` the same way. `trace`, when
/// given, receives every assignment.
std::optional<TwoPatternTest> justify(const Netlist& nl,
                                      std::span<const ValueRequirement> reqs,
                                      Rng& rng, JustifyStats& stats,
                                      int max_attempts = 1,
                                      std::vector<JustifyEvent>* trace = nullptr);

/// The complete branch-and-bound justification of `reqs` with one full
/// `simulate` per probe and no implication seeding. A set with two opposite
/// values on one plane of a line is Unsatisfiable at once, as is one whose
/// all-x assignment conflicts. Each search node runs the greedy necessary-
/// value fixpoint (two probes per scanned bit, each forced bit applied at
/// once), then decides the first half-specified support input with its copy
/// value, otherwise the first free first-pattern bit at 0, and tries the
/// complement after a failure. Every failed value is one backtrack; more
/// than `max_backtracks` in the call aborts it. A leaf succeeds when its
/// simulation satisfies every requirement; the witness fills bits outside
/// the support with 0. Counts into `stats` like
/// `JustificationEngine::branch_and_bound` with `use_implication_seed =
/// false`, which must return the same result.
BnbResult branch_and_bound(const Netlist& nl,
                           std::span<const ValueRequirement> reqs,
                           std::size_t max_backtracks, BnbStats& stats);

}  // namespace pdf::oracle
