#include "faults/screen.hpp"

#include "obs/trace.hpp"
#include "runtime/metrics.hpp"

namespace pdf {

std::vector<TargetFault> screen_faults(const Netlist& nl,
                                       std::vector<PathDelayFault> faults,
                                       ScreenStats* stats, Sensitization sens) {
  PDF_TRACE_SPAN("faults.screen");
  static auto& timer = runtime::Metrics::global().timer("faults.screen");
  static auto& batches =
      runtime::Metrics::global().counter("faults.screen.lane_batches");
  static auto& sweeps =
      runtime::Metrics::global().counter("faults.screen.sweeps");
  const auto timer_scope = timer.measure();

  const CompiledCircuit cc(nl);
  LaneImplication lanes(cc);
  ScreenStats local;
  local.input_faults = faults.size();

  // The open batch: at most kLanes candidates, each survivor moved out when
  // its batch closes.
  std::vector<TargetFault> out;
  out.reserve(faults.size());
  std::vector<TargetFault> batch;
  const auto close_batch = [&] {
    sweeps.add(lanes.close());
    batches.add();
    for (std::size_t lane = 0; lane < batch.size(); ++lane) {
      if (lanes.contradicts(lane)) {
        ++local.implication_dropped;
      } else {
        out.push_back(std::move(batch[lane]));
      }
    }
    lanes.clear();
    batch.clear();
  };

  for (auto& f : faults) {
    FaultRequirements reqs = build_requirements(nl, f, sens);
    if (reqs.conflicting) {
      ++local.conflict_dropped;
      continue;
    }
    lanes.add(reqs.values);
    batch.push_back({std::move(f), std::move(reqs.values)});
    if (lanes.full()) close_batch();
  }
  if (lanes.size() > 0) close_batch();
  local.kept = out.size();
  if (stats) *stats = local;
  return out;
}

}  // namespace pdf
