#include "sim/triple_sim.hpp"

#include <stdexcept>
#include <utility>

namespace pdf {

std::vector<Triple> simulate(const Netlist& nl, std::span<const Triple> pi_values) {
  SimScratch scratch;
  simulate(CompiledCircuit(nl), pi_values, scratch);
  return std::move(scratch.triples);
}

std::span<const Triple> simulate(const CompiledCircuit& cc,
                                 std::span<const Triple> pi_values,
                                 SimScratch& scratch) {
  if (pi_values.size() != cc.inputs().size()) {
    throw std::invalid_argument("simulate: wrong number of PI triples");
  }
  scratch.prepare_triples(cc);
  Triple* value = scratch.triples.data();
  for (std::size_t i = 0; i < pi_values.size(); ++i) {
    value[cc.inputs()[i]] = pi_values[i];
  }
  for (NodeId id : cc.topo_order()) {
    const GateType t = cc.type(id);
    if (t == GateType::Input) continue;
    if (t == GateType::Dff) {
      throw std::invalid_argument("simulate: netlist is sequential");
    }
    value[id] = eval_node_triple(cc, id, value);
  }
  return scratch.triples;
}

}  // namespace pdf
