// Undetectable-fault screening (paper Section 3.1).
//
// Two screens, applied after enumeration and before target-set selection:
//  (1) A(p) itself contains conflicting values on some line (reconvergent
//      off-path constraints, or an off-path constraint on an on-path line);
//  (2) the implications of A(p) assign conflicting values to some line.
// Faults passing both screens may still be undetectable (the screens are
// necessary-condition checks, not a complete proof), matching the paper: its
// detected-fault counts stay below the target totals for the same reason.
//
// Screen (2) runs in lane batches. Faults are read in input order; each one
// that passes screen (1) takes the next lane of a LaneImplication
// (implication/implication.hpp), and a full batch of 256 (or the last,
// partial one) is closed in a few whole-circuit sweeps instead of one
// worklist closure per fault. Both closures reach the least fixpoint of the
// same monotone rules, so a lane contradicts exactly when
// ImplicationEngine::contradicts() would: the survivors, their order, their
// requirements and ScreenStats equal the per-fault screen's. Only one
// batch of candidates waits at a time; its survivors move out when it
// closes.
#pragma once

#include <vector>

#include "faults/fault.hpp"
#include "faults/requirements.hpp"
#include "implication/implication.hpp"

namespace pdf {

/// A fault with its precomputed requirement list, the unit the generators
/// operate on.
struct TargetFault {
  PathDelayFault fault;
  std::vector<ValueRequirement> requirements;
};

struct ScreenStats {
  std::size_t input_faults = 0;
  std::size_t conflict_dropped = 0;     // screen (1)
  std::size_t implication_dropped = 0;  // screen (2)
  std::size_t kept = 0;
};

/// Builds requirements for every fault and drops the provably undetectable
/// ones. Order of survivors matches the input order.
std::vector<TargetFault> screen_faults(const Netlist& nl,
                                       std::vector<PathDelayFault> faults,
                                       ScreenStats* stats = nullptr,
                                       Sensitization sens = Sensitization::Robust);

}  // namespace pdf
