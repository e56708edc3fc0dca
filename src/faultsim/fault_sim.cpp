#include "faultsim/fault_sim.hpp"

#include <stdexcept>

#include "sim/triple_sim.hpp"

namespace pdf {

FaultSimulator::FaultSimulator(const Netlist& nl) : cc_(nl) {}

std::span<const Triple> FaultSimulator::simulate_test(
    const TwoPatternTest& test, ThreadState& st) const {
  const std::size_t n = cc_.inputs().size();
  if (test.pi_values.size() != n) {
    throw std::invalid_argument("FaultSimulator: test has wrong PI count");
  }
  // Normalize plane 2 of the PI triples from the pattern planes so callers
  // may hand in tests with stale intermediate values, and compare against the
  // memoized test while doing so.
  bool same = st.memo_valid && st.pi_buf.size() == n;
  st.pi_buf.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Triple t = pi_triple(test.pi_values[i].a1, test.pi_values[i].a3);
    same = same && t == st.pi_buf[i];
    st.pi_buf[i] = t;
  }
  if (same) return st.scratch.triples;
  st.memo_valid = false;  // invalid while scratch is being rewritten
  const std::span<const Triple> values = simulate(cc_, st.pi_buf, st.scratch);
  st.memo_valid = true;
  return values;
}

std::vector<Triple> FaultSimulator::line_values(const TwoPatternTest& test) const {
  const std::span<const Triple> values = simulate_test(test, state_.local());
  return std::vector<Triple>(values.begin(), values.end());
}

void FaultSimulator::line_values(const TwoPatternTest& test,
                                 std::vector<Triple>& out) const {
  const std::span<const Triple> values = simulate_test(test, state_.local());
  out.assign(values.begin(), values.end());
}

std::vector<bool> FaultSimulator::detects(
    const TwoPatternTest& test, std::span<const TargetFault> faults) const {
  const std::span<const Triple> values = simulate_test(test, state_.local());
  std::vector<bool> out(faults.size(), false);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    out[i] = satisfied(values, faults[i].requirements);
  }
  return out;
}

bool FaultSimulator::detects(const TwoPatternTest& test,
                             const TargetFault& fault) const {
  return satisfied(simulate_test(test, state_.local()), fault.requirements);
}

}  // namespace pdf
