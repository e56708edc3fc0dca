// Set-based coverage accounting: detection decided per (test, fault) pair by
// the definitional detects_any, counts aggregated with std::map.
#include <map>

#include "oracle/oracle.hpp"

namespace pdf::oracle {

std::size_t count_detected(const Netlist& nl,
                           std::span<const TwoPatternTest> tests,
                           std::span<const PathDelayFault> faults) {
  std::size_t n = 0;
  for (const bool d : detects_any(nl, tests, faults)) {
    if (d) ++n;
  }
  return n;
}

std::vector<RefCoverageBucket> coverage_by_length(
    const Netlist& nl, std::span<const TwoPatternTest> tests,
    std::span<const PathDelayFault> faults) {
  const std::vector<bool> detected = detects_any(nl, tests, faults);
  // Descending length order via std::greater keys.
  std::map<int, RefCoverageBucket, std::greater<int>> buckets;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const int len = complete_path_length(nl, faults[i].path.nodes);
    RefCoverageBucket& b = buckets[len];
    b.length = len;
    b.total += 1;
    if (detected[i]) b.detected += 1;
  }
  std::vector<RefCoverageBucket> out;
  out.reserve(buckets.size());
  for (const auto& [len, b] : buckets) out.push_back(b);
  return out;
}

}  // namespace pdf::oracle
