// Simulation-based justification (paper Section 2.1).
//
// Given a set of required line values A, the engine searches for a fully
// specified two-pattern test satisfying A:
//   1. every primary input starts at xxx;
//   2. necessary values: for every unspecified PI pattern bit, probe 0 and 1
//      — if both conflict with A the attempt fails, if exactly one conflicts
//      the other value is assigned permanently; repeat to a fixpoint;
//   3. decision: prefer a PI with exactly one pattern bit specified and copy
//      that value to the other bits (making the input steady); otherwise pick
//      a random unspecified pattern bit and a random value;
//   4. repeat 2-3 until all inputs are specified or a conflict occurs.
// The attempt succeeds when the fully specified test satisfies every
// component of every requirement (including hazard-freedom demands on the
// intermediate plane). There is no backtracking; like the paper's procedure
// the search is greedy and randomized, and a configurable number of fresh
// attempts may be made.
//
// Engineering on top of the paper's description (behaviour-preserving):
//   * only PI bits in the structural support of A are probed — bits outside
//     every required line's input cone cannot conflict, so they get random
//     values at the end, written straight into the test without simulating
//     them;
//   * a pass's probes are evaluated in batches: up to 32 unspecified support
//     bits × {0, 1} become the 64 lanes of (value, known) plane words
//     (sim/packed_eval.hpp), simulated over the support cone only, and each
//     lane's conflict is read off the required lines (the intermediate
//     plane only when a requirement can conflict there alone). The lanes
//     are then scanned in the sequential probing order; the first forced
//     bit is applied and the rest of the pass is re-batched from the bit
//     after it, so every decision, RNG draw and JustifyStats count (probes
//     count two per scanned bit) equals one-probe-at-a-time probing, which
//     `oracle::justify` implements and `pdf_check --check justify_agrees`
//     compares against;
//   * assignments (forced bits and decisions) go through an event-driven
//     simulator whose violation/unsatisfied counters answer "does this
//     conflict" and "is the test complete" without a full pass;
//   * a static implication pass over A seeds the forced PI values that pure
//     probing would discover one by one.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "atpg/test_pattern.hpp"
#include "base/rng.hpp"
#include "core/compiled_circuit.hpp"
#include "faults/requirements.hpp"
#include "implication/implication.hpp"
#include "netlist/netlist.hpp"
#include "sim/event_sim.hpp"

namespace pdf {

struct JustifyConfig {
  /// Total greedy attempts (1 = single pass, the paper-faithful setting).
  int max_attempts = 1;
  /// Seed forced values with one static implication run before probing.
  bool use_implication_seed = true;
};

struct JustifyStats {
  std::uint64_t attempts = 0;
  std::uint64_t probes = 0;
  std::uint64_t passes = 0;
  std::uint64_t decisions = 0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
};

class JustificationEngine {
 public:
  /// Compiles `nl` once; the event simulator and the implication engine share
  /// the flattened view.
  JustificationEngine(const Netlist& nl, std::uint64_t seed);

  JustificationEngine(const JustificationEngine&) = delete;
  JustificationEngine& operator=(const JustificationEngine&) = delete;

  /// Searches for a test satisfying `reqs`. nullopt when every attempt fails.
  std::optional<TwoPatternTest> justify(std::span<const ValueRequirement> reqs,
                                        const JustifyConfig& cfg = {});

  const JustifyStats& stats() const { return stats_; }
  Rng& rng() { return rng_; }

 private:
  /// A PI pattern bit: input index and plane (0 = first, 2 = second pattern).
  struct Bit {
    std::size_t input;
    int plane;
  };
  /// One plane of one node across the 64 lanes of a probe batch: the
  /// (value, known) word pair of sim/packed_eval.hpp.
  struct LanePlane {
    std::uint64_t value = 0;
    std::uint64_t known = 0;
  };

  bool attempt(std::span<const ValueRequirement> reqs, const JustifyConfig& cfg);
  void compute_support(std::span<const ValueRequirement> reqs);
  void apply_bit(std::size_t input, int plane, V3 v);
  bool bit_specified(std::size_t input, int plane) const;
  /// Runs necessary-value passes to fixpoint; false on a both-values-conflict
  /// failure.
  bool necessary_passes(std::span<const ValueRequirement> reqs);
  /// Probes pass_bits_[first, first + count) (count <= 32) with 0 on lane 2j
  /// and 1 on lane 2j+1 over the support cone; bit L of the result is set
  /// when lane L conflicts with a requirement.
  std::uint64_t probe_batch(std::span<const ValueRequirement> reqs,
                            std::size_t first, std::size_t count);

  CompiledCircuit cc_;  // shared execution view (declared first: members below borrow it)
  EventSim sim_;
  ImplicationEngine implication_;
  Rng rng_;
  JustifyStats stats_;

  std::vector<V3> bit1_, bit3_;    // decision bits per PI
  std::vector<bool> in_support_;   // per PI index
  std::vector<std::size_t> support_inputs_;
  std::vector<char> visit_mark_;   // per node scratch for support BFS
  std::vector<NodeId> stack_;      // support BFS worklist
  std::vector<NodeId> cone_gates_; // gates of the support cone, topo order
  std::vector<Bit> pass_bits_;     // unspecified support bits of a pass
  std::vector<Bit> free_bits_;     // decision candidates
  std::vector<LanePlane> lanes_[3];  // per plane, per node: probe lanes
  bool hazard_plane_ = false;  // some requirement needs the intermediate plane
};

}  // namespace pdf
