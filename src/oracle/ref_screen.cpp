// Fault screening one fault at a time (paper Section 3.1): A(p), then one
// worklist implication closure per fault. This is the screen the lane
// batches of `pdf::screen_faults` replaced, and the reference they must
// equal fault for fault.
#include "implication/implication.hpp"
#include "oracle/oracle.hpp"

namespace pdf::oracle {

std::vector<TargetFault> screen_faults(const Netlist& nl,
                                       std::span<const PathDelayFault> faults,
                                       ScreenStats& stats, Sensitization sens) {
  ImplicationEngine engine(nl);
  stats = ScreenStats{};
  stats.input_faults = faults.size();
  std::vector<TargetFault> out;
  for (const auto& f : faults) {
    FaultRequirements reqs = build_requirements(nl, f, sens);
    if (reqs.conflicting) {
      ++stats.conflict_dropped;
    } else if (engine.contradicts(reqs.values)) {
      ++stats.implication_dropped;
    } else {
      out.push_back({f, std::move(reqs.values)});
    }
  }
  stats.kept = out.size();
  return out;
}

}  // namespace pdf::oracle
