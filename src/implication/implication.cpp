#include "implication/implication.hpp"

#include <stdexcept>

namespace pdf {

ImplicationEngine::ImplicationEngine(const Netlist& nl) {
  if (!nl.finalized()) throw std::logic_error("ImplicationEngine: not finalized");
  owned_.emplace(nl);
  init(*owned_);
}

ImplicationEngine::ImplicationEngine(const CompiledCircuit& cc) { init(cc); }

void ImplicationEngine::init(const CompiledCircuit& cc) {
  cc_ = &cc;
  if (cc.has_sequential()) {
    throw std::logic_error("ImplicationEngine: netlist is sequential");
  }
  for (auto& plane : value_) plane.assign(cc.node_count(), V3::X);
  work_.reserve(3 * cc.node_count());
}

void ImplicationEngine::clear() {
  mark_ = 0;
  undo();
}

void ImplicationEngine::undo() {
  std::size_t end = work_.size();
#ifdef PATHDELAY_MUTATION_STALE_TRAIL
  // Seeded bug (mutation testing only): undo leaves the newest trail entry
  // assigned, so a rejected extension leaks one value into the closure the
  // next extension starts from — implication_agrees must catch it.
  if (end > mark_) --end;
#endif
  for (std::size_t i = mark_; i < end; ++i) {
    const auto [id, plane] = work_[i];
    value_[plane][id] = V3::X;
  }
  work_.resize(mark_);
  head_ = mark_;
  conflict_ = false;
}

void ImplicationEngine::assign(NodeId id, int plane, V3 v) {
  if (conflict_ || !is_specified(v)) return;
  V3& cur = value_[plane][id];
  if (cur == v) return;
  if (is_specified(cur)) {
    conflict_ = true;
    return;
  }
  cur = v;
  work_.emplace_back(id, plane);
}

// Forward evaluation of `gate` in `plane`; assigns the output if determined.
void ImplicationEngine::forward(NodeId gate, int plane) {
  if (cc_->type(gate) == GateType::Input) return;
  const V3 v = eval_node_plane(*cc_, gate, value_[plane].data());
  if (is_specified(v)) assign(gate, plane, v);
}

// Backward inference for `gate` in `plane` from its (possibly specified)
// output value.
void ImplicationEngine::backward(NodeId gate, int plane) {
  const GateType t = cc_->type(gate);
  if (t == GateType::Input) return;
  const V3 out = value_[plane][gate];
  if (!is_specified(out)) return;
  const std::span<const NodeId> fanin = cc_->fanins(gate);

  switch (t) {
    case GateType::Buf:
      assign(fanin[0], plane, out);
      return;
    case GateType::Not:
      assign(fanin[0], plane, not3(out));
      return;
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor: {
      const V3 c = *controlling_value(t);
      const V3 nc = not3(c);
      // Output seen through the gate's inversion: the value the underlying
      // AND/OR core produces.
      const V3 core = is_inverting(t) ? not3(out) : out;
      if (core == nc) {
        // Non-controlled output: every input must be non-controlling.
        for (NodeId f : fanin) assign(f, plane, nc);
      } else {
        // Controlled output: if all inputs but one are non-controlling, the
        // remaining input must be controlling.
        NodeId unknown = kNoNode;
        int unknown_count = 0;
        for (NodeId f : fanin) {
          const V3 v = value_[plane][f];
          if (v == c) return;  // already justified
          if (!is_specified(v)) {
            unknown = f;
            ++unknown_count;
            if (unknown_count > 1) return;
          }
        }
        if (unknown_count == 1) {
          assign(unknown, plane, c);
        } else if (unknown_count == 0) {
          // All inputs non-controlling but output controlled: contradiction.
          conflict_ = true;
        }
      }
      return;
    }
    default:
      throw std::logic_error("implication on non-primitive gate " +
                             cc_->netlist().node(gate).name);
  }
}

bool ImplicationEngine::extend(std::span<const ValueRequirement> reqs) {
  const CompiledCircuit& cc = *cc_;
  for (const auto& r : reqs) {
    assign(r.line, 0, r.value.a1);
    assign(r.line, 1, r.value.a2);
    assign(r.line, 2, r.value.a3);
    if (conflict_) return false;
  }

  while (head_ < work_.size() && !conflict_) {
    const auto [id, plane] = work_[head_++];

    // PI plane coupling.
    if (cc.input_index(id) >= 0) {
      const V3 b1 = value_[0][id], b2 = value_[1][id], b3 = value_[2][id];
      if (is_specified(b1) && b1 == b3) assign(id, 1, b1);
      if (is_specified(b2)) {
        assign(id, 0, b2);
        assign(id, 2, b2);
      }
    }

    // The node's own gate: re-evaluate forward (consistency with fanins) and
    // infer backwards into fanins.
    forward(id, plane);
    backward(id, plane);

    // Every consumer: the changed input may determine the output (forward) or
    // enable sibling inference (backward).
    for (NodeId g : cc.fanouts(id)) {
      forward(g, plane);
      backward(g, plane);
      if (conflict_) break;
    }
  }
  return !conflict_;
}

const ImplicationResult& ImplicationEngine::imply(
    std::span<const ValueRequirement> reqs) {
  clear();
  result_.consistent = extend(reqs);
  result_.values.clear();
  if (result_.consistent) {
    const std::size_t n = cc_->node_count();
    result_.values.resize(n);
    for (NodeId id = 0; id < n; ++id) {
      result_.values[id] = Triple{value_[0][id], value_[1][id], value_[2][id]};
    }
  }
  return result_;
}

}  // namespace pdf
