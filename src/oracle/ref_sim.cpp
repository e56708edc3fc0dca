// Definitional simulation: gate evaluation by enumerating binary
// completions, netlist evaluation by memoized recursion.
#include <array>
#include <cstdint>
#include <stdexcept>

#include "oracle/oracle.hpp"

namespace pdf::oracle {
namespace {

/// Pure binary gate function, written from the textbook definition of each
/// gate (no controlling-value shortcuts). Fanin i's value is bit i of `bits`.
bool eval_gate_binary(GateType t, std::uint64_t bits, std::size_t n) {
  const auto fanin = [&](std::size_t i) { return ((bits >> i) & 1) != 0; };
  switch (t) {
    case GateType::Buf:
      return fanin(0);
    case GateType::Not:
      return !fanin(0);
    case GateType::And:
    case GateType::Nand: {
      bool all = true;
      for (std::size_t i = 0; i < n; ++i) all = all && fanin(i);
      return t == GateType::And ? all : !all;
    }
    case GateType::Or:
    case GateType::Nor: {
      bool any = false;
      for (std::size_t i = 0; i < n; ++i) any = any || fanin(i);
      return t == GateType::Or ? any : !any;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      bool parity = false;
      for (std::size_t i = 0; i < n; ++i) parity = parity != fanin(i);
      return t == GateType::Xor ? parity : !parity;
    }
    default:
      throw std::invalid_argument("oracle: cannot evaluate gate type");
  }
}

/// Memoized recursion from a node to its sources over one plane.
struct PlaneRecursion {
  const Netlist& nl;
  std::vector<V3> value;
  std::vector<char> known;

  V3 eval(NodeId id) {
    if (known[id]) return value[id];
    const Node& n = nl.node(id);
    if (n.type == GateType::Input || n.type == GateType::Dff) {
      throw std::logic_error("oracle: unvalued source node " + n.name);
    }
    if (n.fanin.size() > kMaxGateFanin) {
      throw std::invalid_argument("oracle: gate fanin above kMaxGateFanin");
    }
    std::array<V3, kMaxGateFanin> fanin;
    for (std::size_t i = 0; i < n.fanin.size(); ++i) fanin[i] = eval(n.fanin[i]);
    value[id] = eval_gate_definitional(
        n.type, std::span<const V3>(fanin.data(), n.fanin.size()));
    known[id] = 1;
    return value[id];
  }
};

}  // namespace

V3 eval_gate_definitional(GateType t, std::span<const V3> fanin) {
  if (fanin.size() > kMaxGateFanin) {
    throw std::invalid_argument("oracle: gate fanin above kMaxGateFanin");
  }
  std::array<std::size_t, 20> unknowns;
  std::size_t n_unknown = 0;
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < fanin.size(); ++i) {
    if (fanin[i] == V3::X) {
      if (n_unknown == unknowns.size()) {
        throw std::invalid_argument(
            "oracle: too many unknown fanins to enumerate");
      }
      unknowns[n_unknown++] = i;
    } else if (fanin[i] == V3::One) {
      bits |= std::uint64_t{1} << i;
    }
  }

  bool saw0 = false;
  bool saw1 = false;
  const std::size_t completions = std::size_t{1} << n_unknown;
  for (std::size_t code = 0; code < completions; ++code) {
    for (std::size_t k = 0; k < n_unknown; ++k) {
      const std::uint64_t bit = std::uint64_t{1} << unknowns[k];
      bits = (code >> k) & 1 ? bits | bit : bits & ~bit;
    }
    (eval_gate_binary(t, bits, fanin.size()) ? saw1 : saw0) = true;
    if (saw0 && saw1) return V3::X;
  }
  return saw1 ? V3::One : V3::Zero;
}

std::vector<V3> simulate_plane(const Netlist& nl, std::span<const V3> pi_values) {
  if (!nl.finalized()) throw std::logic_error("oracle: netlist not finalized");
  if (pi_values.size() != nl.inputs().size()) {
    throw std::invalid_argument("oracle: wrong PI value count");
  }
  PlaneRecursion r{nl, std::vector<V3>(nl.node_count(), V3::X),
                   std::vector<char>(nl.node_count(), 0)};
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    r.value[nl.inputs()[i]] = pi_values[i];
    r.known[nl.inputs()[i]] = 1;
  }
  for (NodeId id = 0; id < nl.node_count(); ++id) r.eval(id);
  return std::move(r.value);
}

std::vector<Triple> simulate(const Netlist& nl, std::span<const Triple> pi_values) {
  std::vector<V3> p1(pi_values.size());
  std::vector<V3> p2(pi_values.size());
  std::vector<V3> p3(pi_values.size());
  // PI triples are taken verbatim — deriving the intermediate value from the
  // pattern planes is the job of whoever builds the test (pi_triple /
  // TwoPatternTest), and the engines under test receive the same triples.
  for (std::size_t i = 0; i < pi_values.size(); ++i) {
    p1[i] = pi_values[i].a1;
    p2[i] = pi_values[i].a2;
    p3[i] = pi_values[i].a3;
  }
  const std::vector<V3> v1 = simulate_plane(nl, p1);
  const std::vector<V3> v2 = simulate_plane(nl, p2);
  const std::vector<V3> v3 = simulate_plane(nl, p3);
  std::vector<Triple> out(nl.node_count());
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    out[id] = Triple{v1[id], v2[id], v3[id]};
  }
  return out;
}

}  // namespace pdf::oracle
