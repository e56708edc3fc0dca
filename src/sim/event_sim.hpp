// Event-driven incremental triple simulator with transactional rollback.
//
// The assignment engine of the branch-and-bound justifier
// (`atpg/bnb_justify.*`), its only consumer: after each PI bit it fixes or
// probes, it asks "does any value required by A conflict, and is A
// complete?", and a backtrack rolls the assignment back. (The greedy
// justifier keeps its own per-attempt lane state on the packed kernel.) A
// full resimulation per question would dominate runtime, so this simulator
//   * keeps the triple of every node up to date under the current PI
//     assignment,
//   * propagates a PI change through its fanout cone only, in level order
//     (each affected gate is evaluated at most once per change),
//   * maintains per-line requirement triples plus two global counters —
//     `violations` (a computed component is specified opposite to a required
//     component) and `unsatisfied` (some required component is not yet
//     covered) — updated on every value change, and
//   * records every change in an undo log so a probe is apply → inspect
//     counters → rollback.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "base/triple.hpp"
#include "core/compiled_circuit.hpp"
#include "netlist/netlist.hpp"

namespace pdf {

class EventSim {
 public:
  /// The netlist must be finalized, combinational, and outlive the simulator.
  /// Builds (and owns) a compiled view of the netlist.
  explicit EventSim(const Netlist& nl);

  /// Shares an existing compiled view (must be combinational and outlive the
  /// simulator). Lets one engine build the view once for all its components.
  explicit EventSim(const CompiledCircuit& cc);

  // The simulator may own its compiled view; copying would dangle the
  // internal pointer, so instances are pinned.
  EventSim(const EventSim&) = delete;
  EventSim& operator=(const EventSim&) = delete;

  const Netlist& netlist() const { return cc_->netlist(); }
  const CompiledCircuit& circuit() const { return *cc_; }

  // ---- assignment ----------------------------------------------------------

  /// Sets the triple of the i-th primary input (index into nl.inputs()) and
  /// propagates. Changes are recorded for rollback if a transaction is open.
  void set_pi(std::size_t input_index, const Triple& t);

  /// Resets every PI to xxx and clears all requirements: node values are
  /// restored from the all-xxx snapshot taken at construction, with no
  /// propagation. Not undoable.
  void reset();

  const Triple& pi(std::size_t input_index) const;
  const Triple& value(NodeId id) const { return value_[id]; }
  std::span<const Triple> values() const { return value_; }

  // ---- requirements --------------------------------------------------------

  /// Installs/merges a requirement on a line. The caller guarantees the new
  /// requirement does not conflict with an already-installed one on the same
  /// line (RequirementSet enforces that invariant). Undoable.
  void add_requirement(NodeId id, const Triple& required);

  /// Removes all requirements. Not undoable (use between tests).
  void clear_requirements();

  /// Number of required lines whose computed value has a specified component
  /// opposite to a required component — any probe/assignment making this
  /// nonzero is a conflict in the paper's sense.
  int violations() const { return violations_; }

  /// Number of required lines not yet fully covered by computed values. A
  /// completed test is valid iff this is zero.
  int unsatisfied() const { return unsatisfied_; }

  std::optional<Triple> requirement(NodeId id) const;

  // ---- transactions --------------------------------------------------------

  /// Marks a rollback point. Transactions nest (the returned token must be
  /// passed to the matching rollback/commit).
  std::size_t begin_txn();
  /// Undoes every change since the token's rollback point.
  void rollback(std::size_t token);
  /// Keeps the changes; the rollback point disappears (outer transactions
  /// still cover them).
  void commit(std::size_t token);
  bool in_txn() const { return txn_depth_ > 0; }

 private:
  enum class ChangeKind : std::uint8_t { NodeValue, PiValue, Requirement };
  struct Change {
    ChangeKind kind;
    NodeId node;             // node id (NodeValue/Requirement) or input index (PiValue)
    Triple old_value;        // previous value / previous requirement
    bool had_requirement;    // Requirement changes: whether one existed before
  };

  void init(const CompiledCircuit& cc);
  void propagate(NodeId from);
  void set_node_value(NodeId id, const Triple& v);
  // Recomputes the counter contribution of line `id` given its old
  // requirement/value status already subtracted.
  void add_counter_contribution(NodeId id);
  void sub_counter_contribution(NodeId id, const Triple& req, const Triple& val);

  std::optional<CompiledCircuit> owned_;  // set by the Netlist constructor
  const CompiledCircuit* cc_;
  std::vector<Triple> value_;
  std::vector<Triple> all_x_value_;  // value_ with every PI at xxx (reset)
  std::vector<Triple> pi_value_;

  std::vector<Triple> required_;
  std::vector<bool> has_requirement_;

  int violations_ = 0;
  int unsatisfied_ = 0;

  // Level-bucketed worklist (reused across propagations).
  std::vector<std::vector<NodeId>> buckets_;
  std::vector<bool> queued_;

  std::vector<Change> undo_log_;
  int txn_depth_ = 0;
};

}  // namespace pdf
