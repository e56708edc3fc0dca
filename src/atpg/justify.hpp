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
//   * a static implication pass over A runs first, once per call: it
//     rejects calls it proves unsatisfiable before anything else is built
//     (every attempt then counts as an attempt rejected by implication), and
//     it seeds the forced PI values that pure probing would discover one by
//     one. While a test grows, justify_more() closes only the candidate's
//     requirements on top of the closure of the union accepted so far, kept
//     on success and undone on failure; implication is monotone, so this is
//     the closure a from-scratch pass over the whole union computes;
//   * only PI bits in the structural support of A are probed — bits outside
//     every required line's input cone cannot conflict, so they get random
//     values at the end, written straight into the test without simulating
//     them;
//   * probing runs on lane state that lives for a whole attempt: every
//     support bit still unspecified after the seed owns two lanes of
//     (value, known) plane words (sim/packed_eval.hpp) — lane 2j sets bit j
//     to 0, lane 2j+1 sets it to 1 — and one more reference lane holds the
//     current assignment. The support cone is evaluated once per attempt;
//     after that, a forced bit or a decision is written into every lane and
//     only its fanout inside the cone is re-evaluated, in level order,
//     OR-ing the required lines' conflicts into a per-lane mask. Simulation
//     is monotone, so a live lane's conflicts only accumulate, and a
//     decided bit's own two lanes are never read again;
//   * a pass scans the lanes in the sequential probing order and skips bits
//     that are already specified, so every decision, RNG draw and
//     JustifyStats count (probes count two per scanned bit) equals
//     one-probe-at-a-time probing, which `oracle::justify` implements and
//     `pdf_check --check justify_agrees` compares against;
//   * "does the assignment conflict" is the reference lane's conflict bit;
//     the intermediate plane is simulated only when a requirement can
//     conflict there alone (see attempt());
//   * the finished test is checked by a from-scratch evaluation of the
//     cone, all three planes in the lanes of one word of its own,
//     independent of the incremental lane state.
//
// Branch-and-bound (branch_and_bound()) is a second search over the same
// lane state. The paper notes that its run-to-run variations "can be
// eliminated by using a branch-and-bound procedure instead of a
// simulation-based procedure for justification"; this is that complete
// search over the pattern bits of the support:
//   * every search node runs the same necessary-value fixpoint as the greedy
//     attempt (both conflict -> dead branch, one conflicts -> forced);
//   * a decision takes the first half-specified support input with its copy
//     value (making it steady), otherwise the first free first-pattern bit
//     at 0, then tries the complement;
//   * backtracking uses an undo trail: while a search runs, apply_bit() and
//     write_input_lanes() record every lane word they overwrite, a decision
//     saves the support bits and the conflict words, and a backtrack
//     restores all three instead of re-evaluating the cone;
//   * a leaf (support fully assigned) succeeds only when satisfies() does,
//     hazard-freedom demands on the intermediate plane included.
// Within its backtrack budget the search is exact: Satisfiable comes with a
// witness, Unsatisfiable proves no two-pattern test meets the requirements,
// Aborted means the budget ran out. It draws no random numbers;
// `oracle::branch_and_bound` implements it with one simulation per probe and
// `pdf_check --check bnb_agrees` compares the two.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "atpg/test_pattern.hpp"
#include "base/rng.hpp"
#include "core/compiled_circuit.hpp"
#include "faults/requirements.hpp"
#include "implication/implication.hpp"
#include "netlist/netlist.hpp"

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

enum class BnbStatus { Satisfiable, Unsatisfiable, Aborted };

struct BnbConfig {
  /// Backtrack budget; exceeded -> Aborted.
  std::size_t max_backtracks = 2000;
  /// Seed the search with one static implication pass over the requirements.
  bool use_implication_seed = true;
};

struct BnbStats {
  std::uint64_t calls = 0;
  std::uint64_t decisions = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t probes = 0;
  std::uint64_t sat = 0;
  std::uint64_t unsat = 0;
  std::uint64_t aborted = 0;
};

struct BnbResult {
  BnbStatus status = BnbStatus::Aborted;
  /// Witness (fully specified) when status == Satisfiable.
  TwoPatternTest test;
  std::size_t backtracks = 0;
  std::size_t decisions = 0;
};

class JustificationEngine {
 public:
  /// Compiles `nl` once; the implication engine shares the flattened view.
  JustificationEngine(const Netlist& nl, std::uint64_t seed);

  JustificationEngine(const JustificationEngine&) = delete;
  JustificationEngine& operator=(const JustificationEngine&) = delete;

  /// Supplies a call's full requirement set. It is called only when
  /// implication does not reject the call.
  using Requirements = std::function<std::span<const ValueRequirement>()>;

  /// Searches for a test satisfying `reqs`. nullopt when every attempt fails.
  std::optional<TwoPatternTest> justify(std::span<const ValueRequirement> reqs,
                                        const JustifyConfig& cfg = {});

  /// justify(reqs()) for a requirement set that grows the last successful
  /// call's set by `added`: the implication closure of that call is kept and
  /// only `added` is closed on top of it. Same tests, JustifyStats and RNG
  /// draws as justify(reqs()). Precondition: reqs() is the last successful
  /// justify()/justify_more() call's set plus `added`, under the same
  /// `use_implication_seed`. With the seed off it is plain justify(reqs()).
  std::optional<TwoPatternTest> justify_more(
      const Requirements& reqs, std::span<const ValueRequirement> added,
      const JustifyConfig& cfg = {});

  /// Complete branch-and-bound search for a test satisfying `reqs`; bits
  /// outside the support that no implication fixed are 0 in the witness.
  /// It resets the kept implication closure, so justify_more()'s
  /// precondition does not hold right after it.
  BnbResult branch_and_bound(std::span<const ValueRequirement> reqs,
                             const BnbConfig& cfg = {});

  const JustifyStats& stats() const { return stats_; }
  const BnbStats& bnb_stats() const { return bnb_stats_; }
  Rng& rng() { return rng_; }
  /// The engine's execution view of the netlist, for callers that simulate
  /// the tests it returns without compiling a second one.
  const CompiledCircuit& compiled() const { return cc_; }

 private:
  /// A PI pattern bit: input index and plane (0 = first, 2 = second pattern).
  struct Bit {
    std::size_t input;
    int plane;
  };
  /// One plane of one node across the 64 lanes of a word: the
  /// (value, known) word pair of sim/packed_eval.hpp.
  struct LanePlane {
    std::uint64_t value = 0;
    std::uint64_t known = 0;
  };

  enum class Search { Sat, Unsat, Abort };
  /// A lane word overwritten during a branch-and-bound search.
  struct TrailEntry {
    LanePlane* slot;
    LanePlane old;
  };

  /// Sets want1_/want0_ for `reqs`; false when two requirements want
  /// opposite values on one plane of one line.
  bool set_wants(std::span<const ValueRequirement> reqs);
  void clear_wants(std::span<const ValueRequirement> reqs);
  /// Starts an assignment: every bit x, or the implication closure's PI
  /// values when `seeded`, then the support, the cone and the lanes. False
  /// when that assignment already conflicts with `reqs`.
  bool begin_assignment(std::span<const ValueRequirement> reqs, bool seeded);
  bool attempt(std::span<const ValueRequirement> reqs, const JustifyConfig& cfg);
  /// One branch-and-bound search node and its subtree.
  Search search(std::span<const ValueRequirement> reqs);
  void compute_support(std::span<const ValueRequirement> reqs);
  bool bit_specified(std::size_t input, int plane) const;
  /// Gives every unspecified support bit its two lanes, adds the reference
  /// lane, evaluates the support cone on every lane word and records the
  /// lanes' conflicts with `reqs`.
  void init_lanes(std::span<const ValueRequirement> reqs);
  /// Writes input `input`'s current bits and lanes into its plane words.
  void write_input_lanes(std::size_t input);
  /// Fixes a PI bit in every lane and re-evaluates its fanout in the cone.
  void apply_bit(std::size_t input, int plane, V3 v);
  /// ORs the lanes on which required line `id` conflicts into conflict_.
  void record_conflicts(NodeId id);
  bool lane_conflicts(std::size_t lane) const {
    return (conflict_[lane / 64] >> (lane % 64)) & 1;
  }
  /// The intermediate plane (q == 1) is simulated only when hazard_plane_.
  bool plane_simulated(int q) const { return q != 1 || hazard_plane_; }
  /// The current assignment conflicts with a requirement.
  bool ref_conflicts() const { return lane_conflicts(2 * lane_bits_.size()); }
  /// Runs necessary-value passes to fixpoint, adding to `probes` and
  /// `passes`; false on a both-values-conflict failure.
  bool necessary_passes(std::uint64_t& probes, std::uint64_t& passes);
  /// From-scratch check of the finished assignment on all three planes, in
  /// check_ rather than the lanes.
  bool satisfies(std::span<const ValueRequirement> reqs);
  /// Records a lane word about to be overwritten, while a search runs.
  void save_word(LanePlane& slot) {
    if (recording_) trail_.push_back({&slot, slot});
  }
  /// Adds and zeroes the lane tallies.
  void flush_lane_tallies();
  /// Word `w` of plane `q`: one node-indexed array of LanePlane.
  LanePlane* plane_word(int q, std::size_t w) {
    return lanes_[q].data() + w * cc_.node_count();
  }

  CompiledCircuit cc_;  // shared execution view (declared first: members below borrow it)
  ImplicationEngine implication_;
  Rng rng_;
  JustifyStats stats_;

  std::vector<V3> bit1_, bit3_;    // decision bits per PI
  std::vector<std::size_t> support_inputs_;
  std::vector<char> visit_mark_;   // per node: in the support cone
  std::vector<NodeId> stack_;      // support BFS worklist
  std::vector<NodeId> cone_gates_; // gates of the support cone, topo order
  std::vector<Bit> free_bits_;     // decision candidates

  // Lane state of one attempt.
  std::vector<Bit> lane_bits_;           // bit j owns lanes 2j and 2j+1
  std::vector<int> lane_bit1_, lane_bit3_;  // per PI: owning j, or -1
  std::size_t words_ = 0;                // 64-lane words per plane
  std::vector<LanePlane> lanes_[3];      // per plane: words_ node arrays
  std::vector<std::uint64_t> conflict_;  // per lane word: lane conflicts
  std::vector<std::uint8_t> want1_, want0_;  // per node: planes required 1/0
  std::vector<std::vector<NodeId>> buckets_;  // per level: queued gates
  std::vector<char> queued_;                  // per node
  bool hazard_plane_ = false;  // some requirement needs the intermediate plane
  std::vector<LanePlane> check_;  // per node, lane q = plane q: satisfies()

  // Branch-and-bound state of one call.
  BnbStats bnb_stats_;
  bool recording_ = false;             // overwritten lane words go to trail_
  std::vector<TrailEntry> trail_;
  std::vector<V3> saved_bits_;         // per open decision: support bits
  std::vector<std::uint64_t> saved_conflicts_;  // per open decision: conflict_
  std::uint64_t backtrack_limit_ = 0;  // more backtracks in total abort

  // Metric tallies, added to runtime::Metrics once per call.
  std::uint64_t lane_updates_ = 0;
  std::uint64_t lane_gate_evals_ = 0;
};

}  // namespace pdf
