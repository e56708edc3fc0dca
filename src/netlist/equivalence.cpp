#include "netlist/equivalence.hpp"

#include <stdexcept>
#include <unordered_map>

#include "base/rng.hpp"
#include "sim/triple_sim.hpp"

namespace pdf {
namespace {

// b's input index for each of a's inputs (by name).
std::vector<std::size_t> align_inputs(const Netlist& a, const Netlist& b) {
  if (a.inputs().size() != b.inputs().size()) {
    throw std::invalid_argument("equivalence: input counts differ");
  }
  std::unordered_map<std::string, std::size_t> b_index;
  for (std::size_t j = 0; j < b.inputs().size(); ++j) {
    b_index[b.node(b.inputs()[j]).name] = j;
  }
  std::vector<std::size_t> map(a.inputs().size());
  for (std::size_t i = 0; i < a.inputs().size(); ++i) {
    const auto it = b_index.find(a.node(a.inputs()[i]).name);
    if (it == b_index.end()) {
      throw std::invalid_argument("equivalence: input name sets differ");
    }
    map[i] = it->second;
  }
  return map;
}

// Output pairs present in both netlists (matched by name).
std::vector<std::pair<NodeId, NodeId>> align_outputs(const Netlist& a,
                                                     const Netlist& b) {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (NodeId oa : a.outputs()) {
    if (auto ob = b.find(a.node(oa).name); ob && b.node(*ob).is_output) {
      out.emplace_back(oa, *ob);
    }
  }
  return out;
}

}  // namespace

EquivalenceResult check_equivalence(const Netlist& a, const Netlist& b,
                                    const EquivalenceConfig& cfg) {
  const auto input_map = align_inputs(a, b);
  const auto outputs = align_outputs(a, b);
  const std::size_t n = a.inputs().size();

  EquivalenceResult result;
  const CompiledCircuit ca(a);
  const CompiledCircuit cb(b);
  SimScratch sa;
  SimScratch sb;
  std::vector<V3> vb(n);
  auto try_vector = [&](const std::vector<V3>& va) -> bool {
    for (std::size_t i = 0; i < n; ++i) vb[input_map[i]] = va[i];
    const std::span<const V3> ra = simulate_plane(ca, va, sa);
    const std::span<const V3> rb = simulate_plane(cb, vb, sb);
    for (const auto& [oa, ob] : outputs) {
      if (ra[oa] != rb[ob]) {
        result.equivalent = false;
        result.output_name = a.node(oa).name;
        result.input_values = va;
        return false;
      }
    }
    return true;
  };

  std::vector<V3> va(n);
  if (n <= cfg.exhaustive_input_limit) {
    result.exhaustive = true;
    const std::size_t total = std::size_t{1} << n;
    for (std::size_t code = 0; code < total; ++code) {
      for (std::size_t i = 0; i < n; ++i) {
        va[i] = (code >> i) & 1 ? V3::One : V3::Zero;
      }
      if (!try_vector(va)) return result;
    }
    return result;
  }

  Rng rng(cfg.seed);
  for (std::size_t k = 0; k < cfg.random_vectors; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      va[i] = rng.coin() ? V3::One : V3::Zero;
    }
    if (!try_vector(va)) return result;
  }
  return result;
}

}  // namespace pdf
