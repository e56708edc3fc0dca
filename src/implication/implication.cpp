#include "implication/implication.hpp"

#include <stdexcept>

namespace pdf {
namespace {

// Working state of one implication run over the engine's reused buffers.
struct State {
  const CompiledCircuit& cc;
  std::vector<V3>* value;    // value[plane][node]
  std::vector<bool>* queued; // queued[plane][node]
  // FIFO of (node, plane) whose value was set: entries before `head` are
  // done. Each (node, plane) is set at most once per run, so it holds at
  // most 3 × node_count entries.
  std::vector<std::pair<NodeId, int>>& work;
  std::size_t head = 0;
  bool conflict = false;

  V3 get(NodeId id, int plane) const { return value[plane][id]; }

  // Sets a value; detects contradictions; enqueues the change.
  void assign(NodeId id, int plane, V3 v) {
    if (conflict || !is_specified(v)) return;
    V3& cur = value[plane][id];
    if (cur == v) return;
    if (is_specified(cur)) {
      conflict = true;
      return;
    }
    cur = v;
    if (!queued[plane][id]) {
      queued[plane][id] = true;
      work.emplace_back(id, plane);
    }
  }
};

// Forward evaluation of `gate` in `plane`; assigns the output if determined.
void forward(State& st, NodeId gate, int plane) {
  if (st.cc.type(gate) == GateType::Input) return;
  const V3 v = eval_node_plane(st.cc, gate, st.value[plane].data());
  if (is_specified(v)) st.assign(gate, plane, v);
}

// Backward inference for `gate` in `plane` from its (possibly specified)
// output value.
void backward(State& st, NodeId gate, int plane) {
  const GateType t = st.cc.type(gate);
  if (t == GateType::Input) return;
  const V3 out = st.get(gate, plane);
  if (!is_specified(out)) return;
  const std::span<const NodeId> fanin = st.cc.fanins(gate);

  switch (t) {
    case GateType::Buf:
      st.assign(fanin[0], plane, out);
      return;
    case GateType::Not:
      st.assign(fanin[0], plane, not3(out));
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
        for (NodeId f : fanin) st.assign(f, plane, nc);
      } else {
        // Controlled output: if all inputs but one are non-controlling, the
        // remaining input must be controlling.
        NodeId unknown = kNoNode;
        int unknown_count = 0;
        for (NodeId f : fanin) {
          const V3 v = st.get(f, plane);
          if (v == c) return;  // already justified
          if (!is_specified(v)) {
            unknown = f;
            ++unknown_count;
            if (unknown_count > 1) return;
          }
        }
        if (unknown_count == 1) {
          st.assign(unknown, plane, c);
        } else if (unknown_count == 0) {
          // All inputs non-controlling but output controlled: contradiction.
          st.conflict = true;
        }
      }
      return;
    }
    default:
      throw std::logic_error("implication on non-primitive gate " +
                             st.cc.netlist().node(gate).name);
  }
}

}  // namespace

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
}

const ImplicationResult& ImplicationEngine::imply(
    std::span<const ValueRequirement> reqs) {
  const CompiledCircuit& cc = *cc_;
  for (int p = 0; p < 3; ++p) {
    value_[p].assign(cc.node_count(), V3::X);
    queued_[p].assign(cc.node_count(), false);
  }
  work_.clear();
  State st{cc, value_, queued_, work_};

  for (const auto& r : reqs) {
    st.assign(r.line, 0, r.value.a1);
    st.assign(r.line, 1, r.value.a2);
    st.assign(r.line, 2, r.value.a3);
    if (st.conflict) break;
  }

  while (st.head < st.work.size() && !st.conflict) {
    const auto [id, plane] = st.work[st.head++];
    st.queued[plane][id] = false;

    // PI plane coupling.
    if (cc.input_index(id) >= 0) {
      const V3 b1 = st.get(id, 0), b2 = st.get(id, 1), b3 = st.get(id, 2);
      if (is_specified(b1) && b1 == b3) st.assign(id, 1, b1);
      if (is_specified(b2)) {
        st.assign(id, 0, b2);
        st.assign(id, 2, b2);
      }
    }

    // The node's own gate: re-evaluate forward (consistency with fanins) and
    // infer backwards into fanins.
    forward(st, id, plane);
    backward(st, id, plane);

    // Every consumer: the changed input may determine the output (forward) or
    // enable sibling inference (backward).
    for (NodeId g : cc.fanouts(id)) {
      forward(st, g, plane);
      backward(st, g, plane);
      if (st.conflict) break;
    }
  }

  result_.consistent = !st.conflict;
  result_.values.clear();
  if (result_.consistent) {
    result_.values.resize(cc.node_count());
    for (NodeId id = 0; id < cc.node_count(); ++id) {
      result_.values[id] = Triple{st.get(id, 0), st.get(id, 1), st.get(id, 2)};
    }
  }
  return result_;
}

}  // namespace pdf
