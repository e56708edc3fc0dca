#include "faults/requirements.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace pdf {

namespace {

// A(p) under construction: requirements sorted by line, merged on add. Paths
// are short, so binary search + insert is ideal.
class RequirementSet {
 public:
  /// Adds/merges a requirement. Returns false (and leaves the set unchanged)
  /// if the new value conflicts with the existing requirement on that line.
  bool add(NodeId line, const Triple& value) {
    auto it = std::lower_bound(
        items_.begin(), items_.end(), line,
        [](const ValueRequirement& r, NodeId l) { return r.line < l; });
    if (it != items_.end() && it->line == line) {
      if (it->value.conflicts_with(value)) return false;
      it->value = merge(it->value, value);
      return true;
    }
    items_.insert(it, ValueRequirement{line, value});
    return true;
  }

  /// Requirements in ascending line order.
  std::span<const ValueRequirement> items() const { return items_; }

 private:
  std::vector<ValueRequirement> items_;
};

}  // namespace

FaultRequirements build_requirements(const Netlist& nl, const PathDelayFault& f,
                                     Sensitization sens) {
  if (f.path.empty()) throw std::invalid_argument("build_requirements: empty path");

  RequirementSet set;
  bool conflicting = false;
  auto require = [&](NodeId line, const Triple& v) {
    if (!set.add(line, v)) conflicting = true;
  };

  // Launch transition at the source and implied transitions along the path.
  bool rising = f.rising_source;
  const auto& nodes = f.path.nodes;
  if (nl.node(nodes.front()).type != GateType::Input) {
    throw std::invalid_argument("path must start at a primary input");
  }
  require(nodes.front(), transition(rising));

  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    const NodeId on_path = nodes[i];
    const NodeId gate = nodes[i + 1];
    const Node& g = nl.node(gate);
    if (!is_primitive_logic(g.type)) {
      throw std::invalid_argument("path crosses non-primitive gate " + g.name +
                                  " (run decompose_xor first)");
    }
    // Validate connectivity (throws when on_path is not a fanin of gate).
    (void)nl.fanin_index(gate, on_path);

    const auto c = controlling_value(g.type);
    if (c.has_value()) {
      const V3 nc = not3(*c);
      const V3 final_on_path = rising ? V3::One : V3::Zero;
#ifdef PATHDELAY_MUTATION_WRONG_SIDE_INPUT
      // Seeded bug (mutation testing only): the robust steady-vs-final-only
      // decision is inverted, relaxing exactly the constraints that make a
      // transition-to-controlling detection robust.
      const Triple off_req =
          (sens == Sensitization::Robust && final_on_path != *c)
              ? steady(nc)
              : final_only(nc);
#else
      const Triple off_req =
          (sens == Sensitization::Robust && final_on_path == *c)
              ? steady(nc)
              : final_only(nc);
#endif
      for (NodeId side : g.fanin) {
        if (side == on_path) continue;
        require(side, off_req);
      }
    }
    rising = rising != is_inverting(g.type);  // flip through inverting gates
    // Non-robust sensitization constrains on-path lines in the final pattern
    // only (their initial values may glitch without invalidating the test).
    require(gate, sens == Sensitization::Robust
                      ? transition(rising)
                      : final_only(rising ? V3::One : V3::Zero));
  }

  if (!nl.node(nodes.back()).is_output) {
    throw std::invalid_argument("path must end at a (pseudo) primary output");
  }

  FaultRequirements out;
  out.conflicting = conflicting;
  const auto items = set.items();
  out.values.assign(items.begin(), items.end());
  return out;
}

std::string requirements_to_string(const Netlist& nl,
                                   std::span<const ValueRequirement> reqs) {
  std::ostringstream os;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (i) os << " ";
    os << nl.node(reqs[i].line).name << "=" << reqs[i].value;
  }
  return os.str();
}

}  // namespace pdf
