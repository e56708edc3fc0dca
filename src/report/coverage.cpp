#include "report/coverage.hpp"

#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>

#include "faultsim/batch_sim.hpp"

namespace pdf {
namespace {

CoverageBreakdown build(std::span<const TargetFault> faults,
                        const std::function<bool(std::size_t)>& is_detected) {
  std::map<int, CoverageBucket, std::greater<int>> by_length;
  CoverageBreakdown out;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    CoverageBucket& b = by_length[faults[i].fault.length];
    b.length = faults[i].fault.length;
    ++b.total;
    ++out.total;
    if (is_detected(i)) {
      ++b.detected;
      ++out.detected;
    }
  }
  out.buckets.reserve(by_length.size());
  for (auto& [len, b] : by_length) out.buckets.push_back(b);
  return out;
}

}  // namespace

CoverageBreakdown coverage_by_length(const Netlist& nl,
                                     std::span<const TwoPatternTest> tests,
                                     std::span<const TargetFault> faults) {
  return coverage_by_length(faults,
                            BatchSimulator(nl).detection_matrix(tests, faults));
}

CoverageBreakdown coverage_by_length(std::span<const TargetFault> faults,
                                     std::span<const bool> detected) {
  if (detected.size() != faults.size()) {
    throw std::invalid_argument("coverage_by_length: size mismatch");
  }
  return build(faults, [&](std::size_t i) { return detected[i]; });
}

CoverageBreakdown coverage_by_length(std::span<const TargetFault> faults,
                                     const std::vector<bool>& detected) {
  if (detected.size() != faults.size()) {
    throw std::invalid_argument("coverage_by_length: size mismatch");
  }
  return build(faults, [&](std::size_t i) { return detected[i]; });
}

CoverageBreakdown coverage_by_length(std::span<const TargetFault> faults,
                                     const DetectionMatrix& matrix) {
  if (matrix.fault_count() != faults.size()) {
    throw std::invalid_argument("coverage_by_length: matrix row mismatch");
  }
  return build(faults, [&](std::size_t i) { return matrix.any(i); });
}

std::string coverage_summary(const CoverageBreakdown& b, std::size_t max_buckets) {
  std::ostringstream os;
  for (std::size_t i = 0; i < b.buckets.size() && i < max_buckets; ++i) {
    if (i) os << " | ";
    os << "L=" << b.buckets[i].length << ": " << b.buckets[i].detected << "/"
       << b.buckets[i].total;
  }
  if (b.buckets.size() > max_buckets) os << " | ...";
  return os.str();
}

}  // namespace pdf
