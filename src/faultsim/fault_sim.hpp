// Robust path-delay fault simulation.
//
// The paper's detection criterion is exact in the triple algebra: a
// two-pattern test t robustly detects fault p iff t satisfies every value in
// A(p) (Section 2.1, "necessary and sufficient"). The simulator therefore
// simulates the test once and checks each fault's requirement list against
// the computed line triples (a requirement is satisfied when the computed
// triple covers it).
//
// Simulation runs on the compiled execution core into a reusable scratch
// arena, and the triples of the most recently simulated test are memoized:
// a sequence of single-fault `detects(test, fault)` queries against the same
// test costs one simulation total. Whole test sets go through
// BatchSimulator instead; this engine answers per-test queries (the ATPG
// inner loop).
//
// The memo is per worker thread (runtime::PerWorker), so one simulator
// instance may be shared by the caller and the runtime pool's workers: each
// thread memoizes independently and answers are unaffected. Threads outside
// the runtime pool must not share an instance (they would share slot 0).
#pragma once

#include <span>
#include <vector>

#include "atpg/test_pattern.hpp"
#include "core/compiled_circuit.hpp"
#include "faults/screen.hpp"
#include "netlist/netlist.hpp"
#include "runtime/per_worker.hpp"

namespace pdf {

class FaultSimulator {
 public:
  /// The netlist must be finalized, combinational, and outlive the simulator.
  explicit FaultSimulator(const Netlist& nl);

  FaultSimulator(const FaultSimulator&) = delete;
  FaultSimulator& operator=(const FaultSimulator&) = delete;

  /// Simulates `test` and returns, for each fault in `faults`, whether it is
  /// robustly detected.
  std::vector<bool> detects(const TwoPatternTest& test,
                            std::span<const TargetFault> faults) const;

  /// True when `test` robustly detects `fault` (single-fault convenience).
  /// Repeated queries with the same test reuse one memoized simulation.
  bool detects(const TwoPatternTest& test, const TargetFault& fault) const;

  /// Query a fault against line triples already produced by line_values():
  /// no simulation at all.
  static bool detects(std::span<const Triple> line_values,
                      const TargetFault& fault) {
    return satisfied(line_values, fault.requirements);
  }

  /// Line triples produced by a test (exposes the underlying simulation).
  std::vector<Triple> line_values(const TwoPatternTest& test) const;

  /// Buffer-reuse overload: fills `out` (resized to node_count()) without
  /// allocating when `out` is already warm.
  void line_values(const TwoPatternTest& test, std::vector<Triple>& out) const;

 private:
  /// Per-thread simulation state: the scratch arena plus the last-test memo.
  /// Each worker thread owns one, so concurrent queries neither race nor
  /// evict each other's memo.
  struct ThreadState {
    SimScratch scratch;
    std::vector<Triple> pi_buf;  // normalized PI triples of the memo
    bool memo_valid = false;
  };

  /// One compiled simulation of `test`, memoized on the test's PI triples.
  std::span<const Triple> simulate_test(const TwoPatternTest& test,
                                        ThreadState& st) const;

  CompiledCircuit cc_;
  mutable runtime::PerWorker<ThreadState> state_;
};

}  // namespace pdf
