#include "netlist/combinational.hpp"

#include <stdexcept>
#include <unordered_map>

namespace pdf {

Netlist extract_combinational(const Netlist& nl) {
  if (!nl.finalized()) throw std::logic_error("extract_combinational: not finalized");

  Netlist out;
  out.set_name(nl.name());
  std::unordered_map<NodeId, NodeId> remap;

  // Inputs first (preserving order), then DFF outputs as pseudo inputs.
  for (NodeId id : nl.inputs()) {
    remap[id] = out.add_input(nl.node(id).name);
  }
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (nl.node(id).type == GateType::Dff) {
      remap[id] = out.add_input(nl.node(id).name);
    }
  }

  // Gates in topological order so fanins are always remapped already.
  for (NodeId id : nl.topo_order()) {
    const Node& n = nl.node(id);
    if (n.type == GateType::Input || n.type == GateType::Dff) continue;
    std::vector<NodeId> fanin;
    fanin.reserve(n.fanin.size());
    for (NodeId f : n.fanin) fanin.push_back(remap.at(f));
    remap[id] = out.add_gate(n.name, n.type, std::move(fanin));
  }

  // Primary outputs carry over; DFF data fanins become pseudo outputs.
  for (NodeId id : nl.outputs()) {
    if (nl.node(id).type == GateType::Dff) {
      // An OUTPUT() naming a DFF observes the state element directly; in the
      // combinational core that is the pseudo input, which is not a
      // meaningful delay-test output, so it is skipped.
      continue;
    }
    out.mark_output(remap.at(id));
  }
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const Node& n = nl.node(id);
    if (n.type != GateType::Dff) continue;
    out.mark_output(remap.at(n.fanin.at(0)));
  }

  out.finalize();
  return out;
}

}  // namespace pdf
