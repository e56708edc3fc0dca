// Static implication over the two-pattern triple algebra.
//
// The triple of every line decomposes into three 3-valued planes that are
// independent copies of the circuit's logic (the intermediate plane is the
// same network evaluated under the conservative hazard semantics), coupled
// only at primary inputs: a PI's intermediate value equals its pattern values
// when they agree, and conversely a specified intermediate value forces both
// pattern values.
//
// Given a requirement set, the engine seeds the specified components onto the
// planes and closes them under
//   * forward implication (gate evaluation),
//   * backward implication (controlling/non-controlling inference: AND output
//     1 forces all inputs 1; AND output 0 with all side inputs at 1 forces
//     the last input to 0; dually for OR; BUF/NOT transfer), and
//   * the PI plane coupling above.
// A derived value that contradicts an existing one proves the requirement set
// unsatisfiable — the paper's second screen for undetectable faults
// (Section 3.1).
//
// The closure is incremental. The engine keeps its per-plane values between
// calls, and extend() closes further requirements on top of the current
// closure. Every rule only ever turns x into a specified value, so the
// closure is the unique least fixpoint of its seeds: the closure reached
// from closure(U) by adding A equals closure(U ∪ A) computed from scratch,
// and so does the contradiction verdict. The work FIFO doubles as the trail:
// each (node, plane) is assigned at most once per closure, so the FIFO lists
// every assignment in order. commit() marks the trail, undo() resets the
// entries past the mark and clear() resets all of them, both in O(trail)
// rather than O(node_count). imply() and contradicts() are from-scratch
// closures built on the same loop.
//
// Traversal runs on the flattened CompiledCircuit view (CSR fanin/fanout,
// dense gate types); gate evaluation gathers fanin values into fixed stack
// buffers. The per-plane values and the work queue are sized once at
// construction and the result is reused, so a warm engine allocates
// nothing.
//
// LaneImplication applies the same rules to up to 256 requirement sets at
// once, one set per lane of a 256-bit (value, known) word per (node, plane).
// Instead of a worklist it sweeps the whole circuit: forward in topological
// order (the packed gate algebra of sim/packed_eval.hpp, merged into the
// current words), then backward in reverse order (the rules above, with the
// "all other inputs non-controlling" test done by prefix and suffix ANDs),
// PI coupling at the start of each forward sweep, until a backward sweep
// changes no word. A lane contradicts when some rule derives the value
// opposite to the one its (node, plane) holds. Both engines compute the
// least fixpoint of the same monotone rules, and a closure that reaches a
// fixpoint without a contradiction is a consistent closed set, so the lane
// verdict equals contradicts() for every lane, whatever the order of rule
// applications. Screening (faults/screen.hpp) closes its faults in lane
// batches; contradicts() stays the per-fault form (the reference).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "base/triple.hpp"
#include "core/compiled_circuit.hpp"
#include "faults/requirements.hpp"
#include "netlist/netlist.hpp"

namespace pdf {

struct ImplicationResult {
  bool consistent = true;
  /// Closed value of every node (indexed by NodeId); meaningful only when
  /// consistent.
  std::vector<Triple> values;
};

class ImplicationEngine {
 public:
  /// Netlist must be finalized, combinational, primitive-only. Builds (and
  /// owns) a compiled view.
  explicit ImplicationEngine(const Netlist& nl);

  /// Shares an existing compiled view (must outlive the engine).
  explicit ImplicationEngine(const CompiledCircuit& cc);

  ImplicationEngine(const ImplicationEngine&) = delete;
  ImplicationEngine& operator=(const ImplicationEngine&) = delete;

  /// Empties the closure (every line x) and the commit mark. O(trail).
  void clear();
  /// Closes `reqs` on top of the current closure. False on a contradiction;
  /// the state is then partial and must be undone (undo() or clear()) before
  /// the next extend().
  bool extend(std::span<const ValueRequirement> reqs);
  /// Keeps everything assigned so far: the next undo() returns here.
  /// Precondition: the last extend() since the mark succeeded.
  void commit() { mark_ = work_.size(); }
  /// Resets every assignment made since the last commit() (or clear()).
  void undo();
  /// The closure's value of `node` on `plane` (0 first pattern, 1
  /// intermediate, 2 second pattern).
  V3 value(NodeId node, int plane) const { return value_[plane][node]; }
  /// (node, plane) assignments in the current closure, conflict included.
  std::size_t trail_size() const { return work_.size(); }

  /// From-scratch closure of `reqs`: clear(), extend(), then a copy of every
  /// node's triple. The result lives in the engine and is overwritten by the
  /// next call.
  const ImplicationResult& imply(std::span<const ValueRequirement> reqs);

  /// True when the from-scratch closure of `reqs` finds a contradiction (no
  /// result copy).
  bool contradicts(std::span<const ValueRequirement> reqs) {
    clear();
    return !extend(reqs);
  }

 private:
  void init(const CompiledCircuit& cc);
  /// Sets an x value; flags a contradiction with a specified one; enqueues
  /// the change.
  void assign(NodeId id, int plane, V3 v);
  void forward(NodeId gate, int plane);
  void backward(NodeId gate, int plane);

  std::optional<CompiledCircuit> owned_;
  const CompiledCircuit* cc_ = nullptr;
  std::vector<V3> value_[3];  // per plane, per node
  // FIFO and trail of assigned (node, plane): a value goes from x to
  // specified once per closure, so each is queued once. Entries before
  // head_ are closed, entries before mark_ are committed. At most
  // 3 × node_count.
  std::vector<std::pair<NodeId, int>> work_;
  std::size_t head_ = 0;
  std::size_t mark_ = 0;
  bool conflict_ = false;
  ImplicationResult result_;
};

/// Lane-parallel contradiction test: the verdict of
/// ImplicationEngine::contradicts() for up to kLanes requirement sets per
/// close(). Usage: add() one set per lane, close(), read contradicts(lane),
/// then clear() before the next batch. Same netlist restrictions as
/// ImplicationEngine.
class LaneImplication {
 public:
  static constexpr std::size_t kLanes = 256;

  /// Shares an existing compiled view (must outlive the engine).
  explicit LaneImplication(const CompiledCircuit& cc);
  ~LaneImplication();
  LaneImplication(const LaneImplication&) = delete;
  LaneImplication& operator=(const LaneImplication&) = delete;

  /// Seeds `reqs` into the next free lane. Precondition: !full().
  void add(std::span<const ValueRequirement> reqs);
  std::size_t size() const { return lanes_; }
  bool full() const { return lanes_ == kLanes; }

  /// Closes every seeded lane; returns the number of forward + backward
  /// sweep pairs it took.
  std::size_t close();
  /// After close(): true when lane `lane`'s closure found a contradiction.
  bool contradicts(std::size_t lane) const;

  /// Every lane back to x, no lane seeded. O(node_count).
  void clear();

 private:
  struct State;  // the lane words; the 256-bit type stays in implication.cpp
  const CompiledCircuit* cc_;
  std::unique_ptr<State> state_;
  std::size_t lanes_ = 0;
};

}  // namespace pdf
