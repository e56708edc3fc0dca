// Shared circuit fixtures for tests, fuzzers and the pdf_check harness.
//
// One header owns every hand-built example netlist, the seeded small-circuit
// generator used by property tests, the structural mutators the fuzzers
// perturb circuits with, the small enumeration helpers, and the per-test
// detection reference that batched results are checked against. Test files,
// tests/test_fuzz.cpp and tools/pdf_check all include this header instead of
// keeping private copies (the pre-PR-5 state had four copies of named_path
// alone).
//
// Everything here is deterministic: any randomness comes in through the
// caller's Rng, so a failing seed replays exactly.
#pragma once

#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "base/triple.hpp"
#include "atpg/test_pattern.hpp"
#include "faultsim/fault_sim.hpp"
#include "netlist/netlist.hpp"
#include "paths/path.hpp"

namespace pdf::testutil {

// ---- hand-built examples ----------------------------------------------------

/// y = AND(a, b), z = OR(y, c); outputs y, z.
inline Netlist tiny_and_or() {
  Netlist nl("tiny");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId y = nl.add_gate("y", GateType::And, {a, b});
  const NodeId z = nl.add_gate("z", GateType::Or, {y, c});
  nl.mark_output(y);
  nl.mark_output(z);
  nl.finalize();
  return nl;
}

/// A 2-level circuit with reconvergent fanout:
///   n = NOT(a); p = AND(a, b); q = OR(n, b); z = NAND(p, q).
inline Netlist reconvergent() {
  Netlist nl("reconv");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId n = nl.add_gate("n", GateType::Not, {a});
  const NodeId p = nl.add_gate("p", GateType::And, {a, b});
  const NodeId q = nl.add_gate("q", GateType::Or, {n, b});
  const NodeId z = nl.add_gate("z", GateType::Nand, {p, q});
  nl.mark_output(z);
  nl.finalize();
  return nl;
}

/// A pure inverter chain of `k` NOT gates behind one input; single output.
inline Netlist chain_circuit(int k) {
  Netlist nl("chain");
  NodeId prev = nl.add_input("i");
  for (int j = 0; j < k; ++j) {
    prev = nl.add_gate("n" + std::to_string(j), GateType::Not, {prev});
  }
  nl.mark_output(prev);
  nl.finalize();
  return nl;
}

// ---- seeded generators ------------------------------------------------------

/// Random small primitive-only combinational netlist for property tests.
/// Between 2 and 6 inputs, up to ~24 gates, every sink marked output.
inline Netlist random_small_netlist(Rng& rng) {
  Netlist nl("prop");
  const std::size_t n_in = 2 + rng.below(5);
  std::vector<NodeId> pool;
  for (std::size_t i = 0; i < n_in; ++i) {
    pool.push_back(nl.add_input("i" + std::to_string(i)));
  }
  const std::size_t n_gates = 4 + rng.below(21);
  for (std::size_t g = 0; g < n_gates; ++g) {
    static constexpr GateType kTypes[] = {GateType::And,  GateType::Nand,
                                          GateType::Or,   GateType::Nor,
                                          GateType::Not,  GateType::Buf};
    const GateType t = kTypes[rng.below(6)];
    std::vector<NodeId> fanin;
    fanin.push_back(pool[rng.below(pool.size())]);
    if (t != GateType::Not && t != GateType::Buf) {
      const std::size_t extra = 1 + rng.below(2);
      for (std::size_t e = 0; e < extra; ++e) {
        const NodeId f = pool[rng.below(pool.size())];
        bool dup = false;
        for (NodeId x : fanin) dup = dup || x == f;
        if (!dup) fanin.push_back(f);
      }
      if (fanin.size() < 2) continue;  // skip degenerate gate
    }
    pool.push_back(nl.add_gate("g" + std::to_string(g), t, std::move(fanin)));
  }
  nl.finalize();
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (nl.node(id).fanout.empty() && nl.node(id).type != GateType::Input) {
      nl.mark_output(id);
    }
  }
  nl.finalize();
  return nl;
}

/// A random fully specified two-pattern test for `n_inputs` PIs (binary
/// pattern planes; the intermediate plane derived as the simulator does).
inline TwoPatternTest random_two_pattern_test(Rng& rng, std::size_t n_inputs) {
  TwoPatternTest t;
  t.pi_values.resize(n_inputs);
  for (std::size_t i = 0; i < n_inputs; ++i) {
    const V3 v1 = rng.coin() ? V3::One : V3::Zero;
    const V3 v3 = rng.coin() ? V3::One : V3::Zero;
    t.pi_values[i] = Triple{v1, v1 == v3 ? v1 : V3::X, v3};
  }
  return t;
}

// ---- structural mutators ----------------------------------------------------
//
// Each mutator rebuilds the netlist with one local edit and re-finalizes it.
// Edits preserve acyclicity (rewires only target strictly lower levels) and
// observation (any gate left dangling is marked as an output, the way the
// generators treat DFF-tap pseudo outputs).

namespace detail {

/// Reconstructs `nl` from scratch applying `edit` to the copied node list
/// first. `fanin[id]` / `type[id]` may be edited freely as long as the result
/// stays a DAG over valid ids.
inline Netlist rebuild_with(
    const Netlist& nl,
    const std::function<void(std::vector<GateType>&,
                             std::vector<std::vector<NodeId>>&)>& edit) {
  std::vector<GateType> types(nl.node_count());
  std::vector<std::vector<NodeId>> fanin(nl.node_count());
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    types[id] = nl.node(id).type;
    fanin[id] = nl.node(id).fanin;
  }
  edit(types, fanin);

  Netlist out(nl.name());
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (types[id] == GateType::Input) {
      out.add_input(nl.node(id).name);
    } else {
      out.add_gate_placeholder(nl.node(id).name, types[id]);
    }
  }
  for (NodeId id = 0; id < fanin.size(); ++id) {
    if (types[id] != GateType::Input) out.set_fanin(id, fanin[id]);
  }
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (nl.node(id).is_output) out.mark_output(id);
  }
  out.finalize();
  for (NodeId id = 0; id < out.node_count(); ++id) {
    if (out.node(id).fanout.empty() && out.node(id).type != GateType::Input &&
        !out.node(id).is_output) {
      out.mark_output(id);
    }
  }
  out.finalize();
  return out;
}

}  // namespace detail

/// Flips one random gate to another type of the same arity class
/// (AND/NAND/OR/NOR cycle; NOT <-> BUF). Returns the input unchanged when the
/// netlist has no gates.
inline Netlist mutate_gate_type(const Netlist& nl, Rng& rng) {
  std::vector<NodeId> gates;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (is_primitive_logic(nl.node(id).type) &&
        nl.node(id).type != GateType::Input) {
      gates.push_back(id);
    }
  }
  if (gates.empty()) return nl;
  const NodeId victim = gates[rng.below(gates.size())];
  return detail::rebuild_with(nl, [&](std::vector<GateType>& types,
                                      std::vector<std::vector<NodeId>>&) {
    const GateType t = types[victim];
    if (t == GateType::Not) {
      types[victim] = GateType::Buf;
    } else if (t == GateType::Buf) {
      types[victim] = GateType::Not;
    } else {
      static constexpr GateType kMulti[] = {GateType::And, GateType::Nand,
                                            GateType::Or, GateType::Nor};
      GateType next = t;
      while (next == t) next = kMulti[rng.below(4)];
      types[victim] = next;
    }
  });
}

/// Rewires one random fanin edge of a gate to a different node of strictly
/// lower level (acyclic by construction). No-op when no candidate exists.
inline Netlist mutate_rewire_fanin(const Netlist& nl, Rng& rng) {
  std::vector<NodeId> gates;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (!nl.node(id).fanin.empty()) gates.push_back(id);
  }
  if (gates.empty()) return nl;
  const NodeId gate = gates[rng.below(gates.size())];
  const std::size_t slot = rng.below(nl.node(gate).fanin.size());
  std::vector<NodeId> candidates;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (nl.node(id).level < nl.node(gate).level && id != nl.node(gate).fanin[slot]) {
      candidates.push_back(id);
    }
  }
  if (candidates.empty()) return nl;
  const NodeId target = candidates[rng.below(candidates.size())];
  return detail::rebuild_with(nl, [&](std::vector<GateType>&,
                                      std::vector<std::vector<NodeId>>& fanin) {
    fanin[gate][slot] = target;
  });
}

/// Inserts a NOT between one random fanin edge (f -> gate) of the netlist.
inline Netlist mutate_insert_inversion(const Netlist& nl, Rng& rng) {
  std::vector<NodeId> gates;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (!nl.node(id).fanin.empty()) gates.push_back(id);
  }
  if (gates.empty()) return nl;
  const NodeId gate = gates[rng.below(gates.size())];
  const std::size_t slot = rng.below(nl.node(gate).fanin.size());

  Netlist out(nl.name());
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (nl.node(id).type == GateType::Input) {
      out.add_input(nl.node(id).name);
    } else {
      out.add_gate_placeholder(nl.node(id).name, nl.node(id).type);
    }
  }
  const NodeId inv =
      out.add_gate_placeholder(out.fresh_name("inv"), GateType::Not);
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (nl.node(id).type == GateType::Input) continue;
    std::vector<NodeId> fanin = nl.node(id).fanin;
    if (id == gate) fanin[slot] = inv;
    out.set_fanin(id, fanin);
  }
  out.set_fanin(inv, {nl.node(gate).fanin[slot]});
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (nl.node(id).is_output) out.mark_output(id);
  }
  out.finalize();
  for (NodeId id = 0; id < out.node_count(); ++id) {
    if (out.node(id).fanout.empty() && out.node(id).type != GateType::Input &&
        !out.node(id).is_output) {
      out.mark_output(id);
    }
  }
  out.finalize();
  return out;
}

/// Applies one randomly chosen structural mutation.
inline Netlist mutate_structure(const Netlist& nl, Rng& rng) {
  switch (rng.below(3)) {
    case 0: return mutate_gate_type(nl, rng);
    case 1: return mutate_rewire_fanin(nl, rng);
    default: return mutate_insert_inversion(nl, rng);
  }
}

// ---- small helpers ----------------------------------------------------------

/// Looks nodes up by name and builds a Path (used all over the path tests).
inline Path named_path(const Netlist& nl,
                       std::initializer_list<const char*> names) {
  Path p;
  for (const char* n : names) p.nodes.push_back(nl.id_of(n));
  return p;
}

inline Path named_path(const Netlist& nl, const std::vector<std::string>& names) {
  Path p;
  for (const auto& n : names) p.nodes.push_back(nl.id_of(n));
  return p;
}

/// Enumerates all fully specified PI triple assignments of small circuits by
/// calling `fn` with each assignment (both pattern planes binary; the
/// intermediate plane derived). 9^n assignments would be excessive, so this
/// walks the 4^n binary pattern pairs.
inline void for_each_binary_test(
    std::size_t n_inputs,
    const std::function<void(const std::vector<Triple>&)>& fn) {
  std::vector<Triple> pis(n_inputs);
  const std::size_t total = std::size_t{1} << (2 * n_inputs);
  for (std::size_t code = 0; code < total; ++code) {
    std::size_t c = code;
    for (std::size_t i = 0; i < n_inputs; ++i) {
      const V3 v1 = (c & 1) ? V3::One : V3::Zero;
      const V3 v3 = (c & 2) ? V3::One : V3::Zero;
      c >>= 2;
      const V3 mid = v1 == v3 ? v1 : V3::X;
      pis[i] = Triple{v1, mid, v3};
    }
    fn(pis);
  }
}

// ---- per-test detection reference --------------------------------------------

/// Per-fault flags: detected by at least one of `tests`, from one per-test
/// FaultSimulator query per test. The reference BatchSimulator::detects_any
/// is compared against.
inline std::vector<bool> detected_by_any(const FaultSimulator& fsim,
                                         std::span<const TwoPatternTest> tests,
                                         std::span<const TargetFault> faults) {
  std::vector<bool> out(faults.size(), false);
  for (const TwoPatternTest& t : tests) {
    const std::vector<bool> d = fsim.detects(t, faults);
    for (std::size_t i = 0; i < d.size(); ++i) out[i] = out[i] || d[i];
  }
  return out;
}

}  // namespace pdf::testutil
