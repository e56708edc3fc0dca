// Robust detection requirements A(p) and requirement-set algebra.
//
// To robustly detect a path delay fault p, a two-pattern test must assign
// (paper Section 2.1, validated against its s27 example):
//   * the launch transition 0x1 / 1x0 at the path source,
//   * at every on-path gate input whose transition ends at the gate's
//     controlling value c: steady non-controlling (c̄ c̄ c̄) on every off-path
//     input (any off-path activity could move the output before the on-path
//     transition arrives),
//   * at every on-path gate input whose transition ends at the
//     non-controlling value: final-pattern non-controlling (x x c̄) on every
//     off-path input (the initial controlling on-path value pins the output,
//     so only the final value matters),
//   * the implied transition triple on every on-path line (redundant in the
//     real circuit but included so that intra-set conflicts — e.g. an
//     off-path constraint falling on an on-path line of the same fault — are
//     detected immediately).
//
// A test t detects {p1..pm} robustly iff it satisfies the union of the A(pi)
// (the generator's per-test union with conflict detection lives in
// atpg/selection.hpp).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "base/triple.hpp"
#include "faults/fault.hpp"
#include "netlist/netlist.hpp"

namespace pdf {

struct ValueRequirement {
  NodeId line = kNoNode;
  Triple value;

  friend bool operator==(const ValueRequirement&, const ValueRequirement&) = default;
};

/// The robust detection predicate (§2.1): the simulated line triples
/// `values` (one per node) satisfy `reqs` when every required line's triple
/// covers the required value. Every scalar detection check goes through here.
inline bool satisfied(std::span<const Triple> values,
                      std::span<const ValueRequirement> reqs) {
  for (const ValueRequirement& r : reqs) {
    if (!values[r.line].covers(r.value)) return false;
  }
  return true;
}

/// Sensitization criterion for A(p).
///
/// Robust is the paper's setting. NonRobust relaxes every off-path
/// constraint to final-pattern non-controlling (xx c̄) and constrains on-path
/// lines in the final pattern only — the classical non-robust two-pattern
/// condition: detection is guaranteed only when no other delay fault is
/// present. Every robust test for p also satisfies the non-robust A(p).
enum class Sensitization {
  Robust,
  NonRobust,
};

/// Result of building A(p).
struct FaultRequirements {
  std::vector<ValueRequirement> values;  // ascending line order
  /// Set when the construction itself found conflicting values on some line
  /// (the fault is undetectable).
  bool conflicting = false;
};

/// Builds A(p) for a fault. The netlist must be combinational and contain
/// only primitive gates (Input/Buf/Not/And/Nand/Or/Nor); run decompose_xor
/// first otherwise. Throws if the path is not structurally valid.
FaultRequirements build_requirements(const Netlist& nl, const PathDelayFault& f,
                                     Sensitization sens = Sensitization::Robust);

/// Debug rendering: "G7=000 G2=xx0 G1=0x1 ...".
std::string requirements_to_string(const Netlist& nl,
                                   std::span<const ValueRequirement> reqs);

}  // namespace pdf
