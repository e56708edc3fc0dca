#include "atpg/application.hpp"

#include <stdexcept>

#include "sim/triple_sim.hpp"

namespace pdf {

TestApplicationAnalyzer::TestApplicationAnalyzer(const CombinationalCircuit& cc)
    : nl_(&cc.netlist), compiled_(cc.netlist) {
  if (cc.pseudo_inputs.size() != cc.pseudo_outputs.size()) {
    throw std::invalid_argument(
        "TestApplicationAnalyzer: pseudo input/output count mismatch");
  }
  std::vector<int> pi_index(nl_->node_count(), -1);
  for (std::size_t i = 0; i < nl_->inputs().size(); ++i) {
    pi_index[nl_->inputs()[i]] = static_cast<int>(i);
  }
  for (std::size_t k = 0; k < cc.pseudo_inputs.size(); ++k) {
    const int idx = pi_index[cc.pseudo_inputs[k]];
    if (idx < 0) {
      throw std::invalid_argument(
          "TestApplicationAnalyzer: pseudo input is not a primary input");
    }
    state_pi_index_.push_back(static_cast<std::size_t>(idx));
    data_node_.push_back(cc.pseudo_outputs[k]);
  }
}

bool TestApplicationAnalyzer::broadside_compatible(
    const TwoPatternTest& test) const {
  if (test.pi_values.size() != nl_->inputs().size()) {
    throw std::invalid_argument("broadside_compatible: test width mismatch");
  }
  if (state_pi_index_.empty()) return true;  // purely combinational

  // Next state under the first pattern.
  std::vector<V3> v1(nl_->inputs().size());
  for (std::size_t i = 0; i < v1.size(); ++i) v1[i] = test.pi_values[i].a1;
  SimScratch scratch;
  const std::span<const V3> values = simulate_plane(compiled_, v1, scratch);

  for (std::size_t k = 0; k < state_pi_index_.size(); ++k) {
    const V3 produced = values[data_node_[k]];
    const V3 wanted = test.pi_values[state_pi_index_[k]].a3;
    if (!is_specified(wanted)) continue;  // free bit: always realizable
    if (produced != wanted) return false;  // unspecified 'produced' cannot
                                           // guarantee the needed value
  }
  return true;
}

bool TestApplicationAnalyzer::skewed_load_compatible(
    const TwoPatternTest& test) const {
  if (test.pi_values.size() != nl_->inputs().size()) {
    throw std::invalid_argument("skewed_load_compatible: test width mismatch");
  }
  // State k takes the previous chain position's V1 value; position 0 takes
  // the (free) scan-in bit.
  for (std::size_t k = 1; k < state_pi_index_.size(); ++k) {
    const V3 shifted = test.pi_values[state_pi_index_[k - 1]].a1;
    const V3 wanted = test.pi_values[state_pi_index_[k]].a3;
    if (!is_specified(wanted)) continue;
    if (shifted != wanted) return false;
  }
  return true;
}

ApplicationStats TestApplicationAnalyzer::classify(
    std::span<const TwoPatternTest> tests) const {
  ApplicationStats s;
  s.total = tests.size();
  for (const auto& t : tests) {
    const bool b = broadside_compatible(t);
    const bool k = skewed_load_compatible(t);
    if (b) ++s.broadside;
    if (k) ++s.skewed_load;
    if (!b && !k) ++s.enhanced_only;
  }
  return s;
}

}  // namespace pdf
