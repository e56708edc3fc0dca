// Coverage accounting by path length.
//
// The paper's quality argument is about *which* faults a test set detects,
// not just how many: coverage of the longest paths must be complete, and
// coverage of the next-to-longest band is the enrichment payoff. This module
// breaks detection down per path-length bucket so examples and benches can
// show the band structure directly.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "atpg/test_pattern.hpp"
#include "faults/screen.hpp"
#include "faultsim/detection_matrix.hpp"
#include "netlist/netlist.hpp"

namespace pdf {

struct CoverageBucket {
  int length = 0;
  std::size_t total = 0;
  std::size_t detected = 0;
  double ratio() const {
    return total == 0 ? 0.0
                      : static_cast<double>(detected) / static_cast<double>(total);
  }
};

struct CoverageBreakdown {
  std::vector<CoverageBucket> buckets;  // descending length
  std::size_t total = 0;
  std::size_t detected = 0;

  double ratio() const {
    return total == 0 ? 0.0
                      : static_cast<double>(detected) / static_cast<double>(total);
  }
};

/// Buckets `faults` by path length and counts which are detected by `tests`,
/// simulated through BatchSimulator (and thus the runtime thread pool). The
/// netlist must be combinational: a sequential one throws std::logic_error
/// (extract the combinational core first, netlist/combinational.hpp).
CoverageBreakdown coverage_by_length(const Netlist& nl,
                                     std::span<const TwoPatternTest> tests,
                                     std::span<const TargetFault> faults);

/// Same, from precomputed detection flags (must align with `faults`).
CoverageBreakdown coverage_by_length(std::span<const TargetFault> faults,
                                     std::span<const bool> detected);
CoverageBreakdown coverage_by_length(std::span<const TargetFault> faults,
                                     const std::vector<bool>& detected);

/// Same, from a precomputed detection matrix (rows must align with `faults`).
CoverageBreakdown coverage_by_length(std::span<const TargetFault> faults,
                                     const DetectionMatrix& matrix);

/// Compact one-line rendering: "L>=30: 299/308 | L=29: 41/52 | ...".
std::string coverage_summary(const CoverageBreakdown& b, std::size_t max_buckets = 8);

}  // namespace pdf
