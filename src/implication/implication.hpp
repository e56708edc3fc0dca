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
// Traversal runs on the flattened CompiledCircuit view (CSR fanin/fanout,
// dense gate types); gate evaluation gathers fanin values into fixed stack
// buffers, and the per-plane values, the work queue and the result are
// engine members reused across calls, so a warm engine allocates nothing.
#pragma once

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

  /// Runs the fixpoint from the given requirements. The result lives in the
  /// engine and is overwritten by the next call; the working buffers are
  /// reused too, so a warm engine allocates nothing.
  const ImplicationResult& imply(std::span<const ValueRequirement> reqs);

  /// Convenience: true when implication finds a contradiction.
  bool contradicts(std::span<const ValueRequirement> reqs) {
    return !imply(reqs).consistent;
  }

 private:
  void init(const CompiledCircuit& cc);

  std::optional<CompiledCircuit> owned_;
  const CompiledCircuit* cc_ = nullptr;
  std::vector<V3> value_[3];      // per plane, per node
  std::vector<bool> queued_[3];   // per plane, per node
  std::vector<std::pair<NodeId, int>> work_;
  ImplicationResult result_;
};

}  // namespace pdf
