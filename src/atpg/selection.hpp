// Secondary-target selection for dynamic compaction (paper Section 2.2).
//
// While a test t is grown, every accepted secondary merges its requirements
// into the union A(P(t)). The value-based heuristic offers next the eligible
// fault with the fewest requirements the union does not already guarantee
// (n_Δ), ties going to the earlier position in the set's visit order; the
// other heuristics offer eligible faults in visit order.
//
// The union changes only when a candidate is accepted, so nothing here is
// recomputed per pick:
//   * RequirementUnion keeps the union dense over node ids (one Triple per
//     line plus the list of required lines). Cover and conflict tests are
//     array lookups, and a candidate is tried by a trial merge that is then
//     committed or undone instead of by copying the union.
//   * SecondaryPicker builds a line -> (fault, required value) inverted index
//     once per target set. A commit updates n_Δ and the "conflicts with the
//     union" flag only of the faults that require something on a line the
//     commit changed.
//   * Eligible faults sit in buckets keyed by n_Δ; each bucket is a bitset
//     over visit-order positions, so pick() is the first set bit of the
//     lowest non-empty bucket: the minimum (n_Δ, position).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "faults/requirements.hpp"
#include "faults/screen.hpp"

namespace pdf {

/// The requirement union of the test being grown, dense over node ids.
class RequirementUnion {
 public:
  /// One merge step on one line. `before` is kAllX when the line was not
  /// required yet.
  struct Change {
    NodeId line = kNoNode;
    Triple before;
    Triple after;
  };

  explicit RequirementUnion(std::size_t node_count);

  /// Empties the union.
  void clear();

  /// Trial-merges `reqs`; follow with commit() or undo(). Precondition: no
  /// requirement conflicts with the union or with another one of `reqs`.
  void merge(std::span<const ValueRequirement> reqs);
  /// Keeps the trial merge and returns the steps that changed a line's value,
  /// in merge order (valid until the next merge or clear).
  std::span<const Change> commit();
  /// Reverts the trial merge.
  void undo();

  /// The union's triple on `line` (kAllX when the line is not required).
  const Triple& at(NodeId line) const { return value_[line]; }
  /// Every required line: the committed ones ascending, then the lines the
  /// pending trial merge added.
  std::span<const NodeId> lines() const { return lines_; }
  /// The union in ascending line order — the form the justifiers take. The
  /// committed lines stay sorted, so this merges in the trial's lines in
  /// O(n) instead of sorting the whole union per call.
  std::span<const ValueRequirement> items();

 private:
  std::vector<Triple> value_;
  std::vector<std::uint8_t> required_;
  std::vector<NodeId> lines_;  // committed lines ascending, then the trial's
  std::size_t committed_lines_ = 0;
  std::vector<Change> trial_;
  std::vector<ValueRequirement> items_;
};

/// Secondary-candidate selection over one target set.
class SecondaryPicker {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// `order` is the set's visit order (a permutation of fault indices). When
  /// `rank_by_delta` is false every pick is the earliest eligible fault in
  /// `order`.
  SecondaryPicker(std::span<const TargetFault> faults,
                  std::span<const std::size_t> order, std::size_t node_count,
                  bool rank_by_delta);

  /// Starts selection for one test: n_Δ and the conflict flags are computed
  /// against `u`, and every fault except the detected ones and `exclude`
  /// becomes eligible.
  void begin(const RequirementUnion& u, const std::vector<bool>& detected,
             std::size_t exclude = kNone);

  /// Removes and returns the eligible fault with the minimum (n_Δ, visit
  /// position), or kNone when no eligible fault is left.
  std::size_t pick();

  /// Follows a committed merge of the union begin() was given.
  void apply(std::span<const RequirementUnion::Change> changes);

  /// n_Δ of `fault`: its requirements the union does not cover.
  std::size_t delta(std::size_t fault) const { return delta_[fault]; }
  /// True when some requirement of `fault` conflicts with the union.
  bool conflicts(std::size_t fault) const { return conflict_[fault] != 0; }
  /// n_Δ values changed by begin() and apply() so far.
  std::uint64_t delta_updates() const { return delta_updates_; }

 private:
  struct Occurrence {
    std::uint32_t fault;
    Triple value;
  };

  // One covered/conflicting transition of a line, for every fault using it.
  void update_line(NodeId line, const Triple& before, const Triple& after,
                   bool update_delta);
  std::size_t key(std::size_t fault) const {
    return rank_by_delta_ ? delta_[fault] : 0;
  }
  void insert(std::size_t fault);
  void erase(std::size_t fault);

  bool rank_by_delta_;
  std::vector<std::size_t> order_;      // position -> fault
  std::vector<std::uint32_t> pos_;      // fault -> position
  std::vector<std::uint32_t> line_begin_;  // CSR over node ids
  std::vector<Occurrence> occurrences_;
  std::vector<std::uint32_t> base_delta_;  // n_Δ against the empty union

  std::vector<std::uint32_t> delta_;
  std::vector<std::uint8_t> conflict_;
  std::vector<std::uint8_t> eligible_;
  std::uint64_t delta_updates_ = 0;

  // Buckets: row k of `bits_` holds the eligible faults with key k, one bit
  // per visit position; count_[k] is the row's population.
  std::size_t words_ = 0;
  std::size_t max_key_ = 0;
  std::vector<std::uint64_t> bits_;
  std::vector<std::size_t> count_;
};

}  // namespace pdf
