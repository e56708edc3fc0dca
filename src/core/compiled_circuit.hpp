// Flattened, immutable execution view of a finalized netlist.
//
// `Netlist` is the construction/transform API: nodes carry names, per-node
// heap vectors and mutation helpers. Every simulation or ATPG engine used to
// chase those heap vectors through `Netlist::node()` in its hot loop, paying
// one pointer dereference and one cache miss per fanin list per gate.
// `CompiledCircuit` is the execution API: it is built once from a finalized
// netlist and packs everything a traversal needs into contiguous
// structure-of-arrays storage —
//   * CSR fanin/fanout adjacency (one index array + one offset array each),
//   * a dense `GateType` array and dense level / output-flag arrays,
//   * a level-packed topological order with per-level offsets (all nodes of
//     level L are contiguous, enabling level-synchronous batching),
//   * PI/PO index maps (NodeId -> input ordinal and back).
// The view never mutates; engines share one instance freely. Rebuild it after
// any netlist transform (the source netlist must outlive the view).
//
// `SimScratch` is the companion reusable arena: engines size it once per
// circuit and run every simulation inside it, so nothing allocates in a
// per-gate hot loop. The fused evaluators below read each fanin triple once
// and accumulate all three planes simultaneously; they are bit-identical to
// plane-wise `eval_gate` (same accumulation order).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "base/triple.hpp"
#include "netlist/gate.hpp"
#include "netlist/netlist.hpp"

namespace pdf {

class CompiledCircuit {
 public:
  /// Builds the view. `nl` must be finalized and must outlive the view.
  explicit CompiledCircuit(const Netlist& nl);

  /// The source netlist (valid as long as it has not been mutated since the
  /// view was built). Names and transform helpers live there.
  const Netlist& netlist() const { return *nl_; }

  std::size_t node_count() const { return type_.size(); }
  GateType type(NodeId id) const { return type_[id]; }
  std::span<const GateType> types() const { return type_; }
  int level(NodeId id) const { return level_[id]; }
  int depth() const { return depth_; }
  bool is_output(NodeId id) const { return is_output_[id] != 0; }
  bool has_sequential() const { return has_sequential_; }

  /// Largest fanin count of any node (0 for a pure-input netlist).
  std::size_t max_fanin() const { return max_fanin_; }

  std::span<const NodeId> fanins(NodeId id) const {
    return {fanin_.data() + fanin_off_[id], fanin_off_[id + 1] - fanin_off_[id]};
  }
  std::span<const NodeId> fanouts(NodeId id) const {
    return {fanout_.data() + fanout_off_[id],
            fanout_off_[id + 1] - fanout_off_[id]};
  }

  std::span<const NodeId> inputs() const { return inputs_; }
  std::span<const NodeId> outputs() const { return outputs_; }

  /// Index of `id` in inputs(), or -1 when the node is not a primary input.
  int input_index(NodeId id) const { return input_index_[id]; }

  /// Level-packed topological order: all nodes of level 0 first (ascending
  /// NodeId), then level 1, ... Valid evaluation order for combinational
  /// edges; sequential (DFF) nodes appear as level-0 sources.
  std::span<const NodeId> topo_order() const { return topo_; }

  /// Nodes of one level, as a slice of topo_order().
  std::span<const NodeId> level_nodes(int level) const {
    return {topo_.data() + level_off_[static_cast<std::size_t>(level)],
            level_off_[static_cast<std::size_t>(level) + 1] -
                level_off_[static_cast<std::size_t>(level)]};
  }

  /// depth()+2 offsets into topo_order(): level L spans
  /// [level_offsets()[L], level_offsets()[L+1]).
  std::span<const std::uint32_t> level_offsets() const { return level_off_; }

 private:
  const Netlist* nl_;
  std::vector<GateType> type_;
  std::vector<int> level_;
  std::vector<std::uint8_t> is_output_;
  std::vector<std::uint32_t> fanin_off_;
  std::vector<NodeId> fanin_;
  std::vector<std::uint32_t> fanout_off_;
  std::vector<NodeId> fanout_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::vector<int> input_index_;
  std::vector<NodeId> topo_;
  std::vector<std::uint32_t> level_off_;
  std::size_t max_fanin_ = 0;
  int depth_ = 0;
  bool has_sequential_ = false;
};

/// Reusable simulation buffers, sized on first use for a given circuit.
/// One scratch per engine instance; engines reuse it across calls so the
/// steady state performs zero heap allocations.
struct SimScratch {
  std::vector<Triple> triples;  // node-indexed triple plane

  void prepare_triples(const CompiledCircuit& cc, const Triple& fill = kAllX) {
    triples.assign(cc.node_count(), fill);
  }
};

/// Fused triple evaluation of node `id` reading fanin triples from the dense
/// node-indexed array `values`. Accumulates the three planes in one pass over
/// the fanins; bit-identical to evaluating each plane with `eval_gate`.
/// `id` must not be an Input node.
inline Triple eval_node_triple(const CompiledCircuit& cc, NodeId id,
                               const Triple* values) {
  const std::span<const NodeId> fin = cc.fanins(id);
  switch (cc.type(id)) {
    case GateType::Buf:
    case GateType::Dff:
      return values[fin[0]];
    case GateType::Not: {
      const Triple& a = values[fin[0]];
      return Triple{not3(a.a1), not3(a.a2), not3(a.a3)};
    }
    case GateType::And:
    case GateType::Nand: {
      V3 a1 = V3::One, a2 = V3::One, a3 = V3::One;
      for (NodeId f : fin) {
        const Triple& v = values[f];
        a1 = and3(a1, v.a1);
        a2 = and3(a2, v.a2);
        a3 = and3(a3, v.a3);
      }
      if (cc.type(id) == GateType::Nand) {
        return Triple{not3(a1), not3(a2), not3(a3)};
      }
      return Triple{a1, a2, a3};
    }
    case GateType::Or:
    case GateType::Nor: {
      V3 a1 = V3::Zero, a2 = V3::Zero, a3 = V3::Zero;
      for (NodeId f : fin) {
        const Triple& v = values[f];
        a1 = or3(a1, v.a1);
        a2 = or3(a2, v.a2);
        a3 = or3(a3, v.a3);
      }
      if (cc.type(id) == GateType::Nor) {
        return Triple{not3(a1), not3(a2), not3(a3)};
      }
      return Triple{a1, a2, a3};
    }
    case GateType::Xor:
    case GateType::Xnor: {
      V3 a1 = V3::Zero, a2 = V3::Zero, a3 = V3::Zero;
      for (NodeId f : fin) {
        const Triple& v = values[f];
        a1 = xor3(a1, v.a1);
        a2 = xor3(a2, v.a2);
        a3 = xor3(a3, v.a3);
      }
      if (cc.type(id) == GateType::Xnor) {
        return Triple{not3(a1), not3(a2), not3(a3)};
      }
      return Triple{a1, a2, a3};
    }
    case GateType::Input:
      break;
  }
  assert(false && "eval_node_triple on an Input node");
  return kAllX;
}

/// Single-plane fused evaluation: like eval_node_triple but over a dense V3
/// array. Bit-identical to `eval_gate` over the gathered fanin values.
inline V3 eval_node_plane(const CompiledCircuit& cc, NodeId id,
                          const V3* values) {
  const std::span<const NodeId> fin = cc.fanins(id);
  switch (cc.type(id)) {
    case GateType::Buf:
    case GateType::Dff:
      return values[fin[0]];
    case GateType::Not:
      return not3(values[fin[0]]);
    case GateType::And:
    case GateType::Nand: {
      V3 acc = V3::One;
      for (NodeId f : fin) acc = and3(acc, values[f]);
      return cc.type(id) == GateType::Nand ? not3(acc) : acc;
    }
    case GateType::Or:
    case GateType::Nor: {
      V3 acc = V3::Zero;
      for (NodeId f : fin) acc = or3(acc, values[f]);
      return cc.type(id) == GateType::Nor ? not3(acc) : acc;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      V3 acc = V3::Zero;
      for (NodeId f : fin) acc = xor3(acc, values[f]);
      return cc.type(id) == GateType::Xnor ? not3(acc) : acc;
    }
    case GateType::Input:
      break;
  }
  assert(false && "eval_node_plane on an Input node");
  return V3::X;
}

}  // namespace pdf
