// Test-application analysis for scan designs.
//
// Two-pattern tests on the combinational core implicitly assume *enhanced
// scan* (both patterns arbitrarily controllable). Standard scan hardware
// restricts the second pattern's state part:
//   * broadside (launch-on-capture): the state bits of V2 must equal the
//     next-state function applied to V1 — the capture clock produces them;
//   * skewed-load (launch-on-shift): the state bits of V2 are V1's state
//     shifted one position along the scan chain (the chain input bit is
//     free).
// This analyzer classifies generated tests by which application scheme can
// deliver them, so users know how much of a test set survives without
// enhanced-scan flops. Primary (non-state) inputs are assumed to be freely
// controllable in both cycles.
//
// The scan-chain order for skewed-load is the order of
// CombinationalCircuit::pseudo_inputs (position 0 receives the scan-in bit).
#pragma once

#include <span>
#include <vector>

#include "atpg/test_pattern.hpp"
#include "core/compiled_circuit.hpp"
#include "netlist/combinational.hpp"

namespace pdf {

struct ApplicationStats {
  std::size_t total = 0;
  std::size_t broadside = 0;
  std::size_t skewed_load = 0;
  std::size_t enhanced_only = 0;  // neither standard scheme can apply it
};

class TestApplicationAnalyzer {
 public:
  /// The analyzed circuit, with its state bookkeeping. The referenced
  /// netlist must outlive the analyzer.
  explicit TestApplicationAnalyzer(const CombinationalCircuit& cc);

  /// True when the capture clock reproduces V2's state part from V1.
  bool broadside_compatible(const TwoPatternTest& test) const;

  /// True when one scan shift turns V1's state part into V2's.
  bool skewed_load_compatible(const TwoPatternTest& test) const;

  ApplicationStats classify(std::span<const TwoPatternTest> tests) const;

 private:
  const Netlist* nl_;
  CompiledCircuit compiled_;  // of *nl_, built once for the broadside sims
  /// Parallel arrays: state element k reads next-state from data_node_[k]
  /// and appears as PI index state_pi_index_[k].
  std::vector<NodeId> data_node_;
  std::vector<std::size_t> state_pi_index_;
};

}  // namespace pdf
