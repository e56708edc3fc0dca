#include "atpg/post_compact.hpp"

#include <algorithm>

#include "faultsim/batch_sim.hpp"

namespace pdf {

PostCompactionResult post_compact(const Netlist& nl,
                                  std::span<const TwoPatternTest> tests,
                                  std::span<const TargetFault> p0,
                                  std::span<const TargetFault> p1) {
  // One detection matrix over the concatenated fault list: row f is the set
  // of tests detecting fault f.
  std::vector<TargetFault> faults(p0.begin(), p0.end());
  faults.insert(faults.end(), p1.begin(), p1.end());
  const DetectionMatrix detects =
      BatchSimulator(nl).detection_matrix(tests, faults);

  std::vector<bool> covered(faults.size(), false);
  std::vector<std::size_t> kept;
  for (std::size_t rt = tests.size(); rt-- > 0;) {
    bool useful = false;
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (detects.bit(f, rt) && !covered[f]) {
        useful = true;
        break;
      }
    }
    if (!useful) continue;
    kept.push_back(rt);
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (detects.bit(f, rt)) covered[f] = true;
    }
  }
  std::reverse(kept.begin(), kept.end());

  PostCompactionResult out;
  out.kept_indices = std::move(kept);
  out.tests.reserve(out.kept_indices.size());
  for (std::size_t idx : out.kept_indices) out.tests.push_back(tests[idx]);
  out.dropped = tests.size() - out.tests.size();
  return out;
}

}  // namespace pdf
