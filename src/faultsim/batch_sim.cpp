#include "faultsim/batch_sim.hpp"

#include <stdexcept>

#include "obs/trace.hpp"
#include "runtime/metrics.hpp"

namespace pdf {
namespace {

runtime::Metrics::Timer& matrix_timer() {
  static runtime::Metrics::Timer& t =
      runtime::Metrics::global().timer("faultsim.detection_matrix");
  return t;
}

}  // namespace

BatchSimulator::BatchSimulator(const Netlist& nl,
                               const sim::SimBackend* backend)
    : cc_(nl),
      backend_(backend != nullptr ? backend : &sim::selected_backend()) {
  if (cc_.has_sequential()) {
    throw std::logic_error("BatchSimulator: netlist is sequential");
  }
}

DetectionMatrix BatchSimulator::detection_matrix(
    std::span<const TwoPatternTest> tests,
    std::span<const TargetFault> faults) const {
  PDF_TRACE_SPAN("faultsim.detection_matrix");
  const auto scope = matrix_timer().measure();
  static auto& tests_hist =
      runtime::Metrics::global().histogram("faultsim.matrix_tests");
  tests_hist.record(tests.size());
  // Validate up front so a width error surfaces as one exception on the
  // calling thread, not from inside a pool task.
  for (const TwoPatternTest& t : tests) {
    if (t.pi_values.size() != cc_.inputs().size()) {
      throw std::invalid_argument("BatchSimulator: bad test width");
    }
  }
  return backend_->detection_matrix(cc_, tests, faults);
}

void BatchSimulator::prepare(std::span<const TwoPatternTest> tests,
                             std::span<const TargetFault> faults,
                             sim::PreparedBatch& prep) const {
  for (const TwoPatternTest& t : tests) {
    if (t.pi_values.size() != cc_.inputs().size()) {
      throw std::invalid_argument("BatchSimulator: bad test width");
    }
  }
  sim::prepare_batch(cc_, tests, faults, prep);
}

DetectionMatrix BatchSimulator::detection_matrix(
    std::span<const TwoPatternTest> tests,
    std::span<const TargetFault> faults,
    const sim::PreparedBatch& prep) const {
  PDF_TRACE_SPAN("faultsim.detection_matrix");
  const auto scope = matrix_timer().measure();
  return backend_->detection_matrix_prepared(cc_, tests, faults, prep);
}

std::vector<bool> BatchSimulator::detects_any(
    std::span<const TwoPatternTest> tests,
    std::span<const TargetFault> faults) const {
  std::vector<bool> out(faults.size(), false);
  if (tests.empty()) return out;
  const DetectionMatrix matrix = detection_matrix(tests, faults);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
#ifdef PATHDELAY_MUTATION_DROPPED_COVERAGE_UNION
    // Seeded bug (mutation testing only): the last test is dropped from the
    // union, so coverage attributable solely to it goes missing.
    bool any = false;
    for (std::size_t ti = 0; ti + 1 < tests.size(); ++ti) {
      any = any || matrix.bit(fi, ti);
    }
    out[fi] = any;
#else
    out[fi] = matrix.any(fi);
#endif
  }
  return out;
}

}  // namespace pdf
