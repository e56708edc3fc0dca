// Full-pass two-pattern (triple) simulation.
//
// The triple algebra decomposes into three independent three-valued planes
// (first pattern / intermediate / second pattern); planes are coupled only at
// primary inputs, where the intermediate value of a PI is its stable value if
// both patterns agree and x otherwise. Internally each plane is an ordinary
// 3-valued simulation of the same netlist, evaluated in topological order.
//
// The intermediate plane implements the conservative hazard semantics the
// paper's robust constraints rely on: an internal line's intermediate value
// is specified only when the logic provably holds it steady for every
// possible skew of the transitioning inputs (e.g. a steady controlling side
// input blocks all hazards).
//
// One evaluator per simulation: the `CompiledCircuit` overloads run linear
// scans over the flattened arrays into a caller-owned `SimScratch` and
// allocate nothing in the steady state — the execution path every engine
// uses. The `Netlist` overloads are one-shot conveniences that compile a
// view, run it and return the values; callers that simulate more than one
// vector compile once and use the compiled overloads. The differential
// baseline is the oracle (`oracle::simulate`, DESIGN.md §10).
#pragma once

#include <span>
#include <vector>

#include "base/triple.hpp"
#include "core/compiled_circuit.hpp"
#include "netlist/netlist.hpp"

namespace pdf {

/// Derives a primary-input triple from its two decision bits (first/second
/// pattern values). The intermediate value is b1 when b1 == b3 and both are
/// specified, x otherwise.
inline Triple pi_triple(V3 b1, V3 b3) {
  const V3 mid = (is_specified(b1) && b1 == b3) ? b1 : V3::X;
  return Triple{b1, mid, b3};
}

/// Simulates the whole netlist (compiles a view, then runs the compiled
/// overload). `pi_values[i]` is the triple of nl.inputs()[i]. Returns one
/// triple per node (indexed by NodeId). The netlist must be finalized and
/// combinational.
std::vector<Triple> simulate(const Netlist& nl, std::span<const Triple> pi_values);

/// Compiled-core simulation: fills scratch.triples (one triple per node) and
/// returns a view of it. No allocation once the scratch is warm.
std::span<const Triple> simulate(const CompiledCircuit& cc,
                                 std::span<const Triple> pi_values,
                                 SimScratch& scratch);

}  // namespace pdf
