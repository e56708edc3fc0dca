#include "atpg/justify.hpp"

#include <algorithm>
#include <cassert>

#include "obs/trace.hpp"
#include "runtime/metrics.hpp"
#include "sim/packed_eval.hpp"
#include "sim/triple_sim.hpp"

namespace pdf {
namespace {

/// Probed bits per batch: each takes two of the 64 lanes (value 0, value 1).
constexpr std::size_t kBatchBits = 32;

/// A plane value broadcast to all 64 lanes.
void broadcast(V3 v, std::uint64_t& value, std::uint64_t& known) {
  known = is_specified(v) ? ~std::uint64_t{0} : 0;
  value = v == V3::One ? ~std::uint64_t{0} : 0;
}

/// Overwrites lane bit(s) `lane` of a plane with `v`.
void set_lane(V3 v, std::uint64_t lane, std::uint64_t& value,
              std::uint64_t& known) {
  known = is_specified(v) ? known | lane : known & ~lane;
  value = v == V3::One ? value | lane : value & ~lane;
}

}  // namespace

JustificationEngine::JustificationEngine(const Netlist& nl, std::uint64_t seed)
    : cc_(nl), sim_(cc_), implication_(cc_), rng_(seed) {
  bit1_.assign(cc_.inputs().size(), V3::X);
  bit3_.assign(cc_.inputs().size(), V3::X);
  in_support_.assign(cc_.inputs().size(), false);
  visit_mark_.assign(cc_.node_count(), 0);
  for (auto& plane : lanes_) plane.assign(cc_.node_count(), LanePlane{});
}

bool JustificationEngine::bit_specified(std::size_t input, int plane) const {
  return is_specified(plane == 0 ? bit1_[input] : bit3_[input]);
}

void JustificationEngine::apply_bit(std::size_t input, int plane, V3 v) {
  (plane == 0 ? bit1_[input] : bit3_[input]) = v;
  sim_.set_pi(input, pi_triple(bit1_[input], bit3_[input]));
}

void JustificationEngine::compute_support(
    std::span<const ValueRequirement> reqs) {
  std::fill(in_support_.begin(), in_support_.end(), false);
  support_inputs_.clear();
  std::fill(visit_mark_.begin(), visit_mark_.end(), 0);
  stack_.clear();
  for (const auto& r : reqs) {
    if (!visit_mark_[r.line]) {
      visit_mark_[r.line] = 1;
      stack_.push_back(r.line);
    }
  }
  while (!stack_.empty()) {
    const NodeId id = stack_.back();
    stack_.pop_back();
    if (const int idx = cc_.input_index(id); idx >= 0) {
      if (!in_support_[static_cast<std::size_t>(idx)]) {
        in_support_[static_cast<std::size_t>(idx)] = true;
        support_inputs_.push_back(static_cast<std::size_t>(idx));
      }
    }
    for (NodeId f : cc_.fanins(id)) {
      if (!visit_mark_[f]) {
        visit_mark_[f] = 1;
        stack_.push_back(f);
      }
    }
  }
  std::sort(support_inputs_.begin(), support_inputs_.end());
  cone_gates_.clear();
  for (NodeId id : cc_.topo_order()) {
    if (visit_mark_[id] && cc_.type(id) != GateType::Input) {
      cone_gates_.push_back(id);
    }
  }
}

std::uint64_t JustificationEngine::probe_batch(
    std::span<const ValueRequirement> reqs, std::size_t first,
    std::size_t count) {
  LanePlane* const planes[3] = {lanes_[0].data(), lanes_[1].data(),
                                lanes_[2].data()};
  const auto skip_plane = [&](int q) { return q == 1 && !hazard_plane_; };
  // Every lane starts from the current assignment of the support inputs...
  for (std::size_t input : support_inputs_) {
    const Triple t = pi_triple(bit1_[input], bit3_[input]);
    const V3 comps[3] = {t.a1, t.a2, t.a3};
    const NodeId id = cc_.inputs()[input];
    for (int q = 0; q < 3; ++q) {
      broadcast(comps[q], planes[q][id].value, planes[q][id].known);
    }
  }
  // ...then lanes 2j and 2j+1 set probed bit j to 0 and to 1.
  for (std::size_t j = 0; j < count; ++j) {
    const Bit b = pass_bits_[first + j];
    const NodeId id = cc_.inputs()[b.input];
    for (const V3 v : {V3::Zero, V3::One}) {
      const Triple t = b.plane == 0 ? pi_triple(v, bit3_[b.input])
                                    : pi_triple(bit1_[b.input], v);
      const V3 comps[3] = {t.a1, t.a2, t.a3};
      const std::uint64_t lane = std::uint64_t{1}
                                 << (2 * j + (v == V3::One ? 1 : 0));
      for (int q = 0; q < 3; ++q) {
        set_lane(comps[q], lane, planes[q][id].value, planes[q][id].known);
      }
    }
  }

  for (int q = 0; q < 3; ++q) {
    if (skip_plane(q)) continue;
    for (NodeId id : cone_gates_) sim::eval_packed_gate(cc_, id, planes[q]);
  }

  // A lane conflicts when some required line is known opposite to a
  // specified required component, on any plane.
  std::uint64_t conflict = 0;
  for (const auto& r : reqs) {
    const V3 want[3] = {r.value.a1, r.value.a2, r.value.a3};
    for (int q = 0; q < 3; ++q) {
#ifdef PATHDELAY_MUTATION_LANE_HAZARD_PLANE
      // Seeded bug (mutation testing only): the lane conflict mask ignores
      // the intermediate (hazard) plane, so a probe that only breaks a
      // hazard-freedom demand is not seen as a conflict. The final
      // violations/unsatisfied check still rejects invalid tests, so only
      // the justifier's decisions change — justify_agrees must catch it.
      if (q == 1) continue;
#endif
      if (!is_specified(want[q]) || skip_plane(q)) continue;
      const LanePlane& w = planes[q][r.line];
      conflict |= w.known & (want[q] == V3::One ? ~w.value : w.value);
    }
  }
  const std::uint64_t used = 2 * count == 64
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << (2 * count)) - 1;
  return conflict & used;
}

bool JustificationEngine::necessary_passes(
    std::span<const ValueRequirement> reqs) {
  static auto& batches =
      runtime::Metrics::global().counter("atpg.justify.probe_batches");
  bool progress = true;
  while (progress) {
    progress = false;
    ++stats_.passes;
    pass_bits_.clear();
    for (std::size_t input : support_inputs_) {
      for (int plane : {0, 2}) {
        if (!bit_specified(input, plane)) pass_bits_.push_back({input, plane});
      }
    }
    // Scan the lanes in probing order. A forced bit changes the state every
    // later probe of the pass sees, so the pass re-batches after it.
    std::size_t next = 0;
    while (next < pass_bits_.size()) {
      const std::size_t first = next;
      const std::size_t count =
          std::min(kBatchBits, pass_bits_.size() - first);
      const std::uint64_t conflicts = probe_batch(reqs, first, count);
      batches.add();
      next = first + count;
      for (std::size_t j = 0; j < count; ++j) {
        stats_.probes += 2;
        const bool c0 = (conflicts >> (2 * j)) & 1;
        const bool c1 = (conflicts >> (2 * j + 1)) & 1;
        if (c0 && c1) return false;
        if (c0 != c1) {
          const Bit b = pass_bits_[first + j];
          apply_bit(b.input, b.plane, c0 ? V3::One : V3::Zero);
          if (sim_.violations() > 0) return false;
          progress = true;
          next = first + j + 1;
          break;
        }
      }
    }
  }
  return true;
}

bool JustificationEngine::attempt(std::span<const ValueRequirement> reqs,
                                  const JustifyConfig& cfg) {
  ++stats_.attempts;
  sim_.reset();
  std::fill(bit1_.begin(), bit1_.end(), V3::X);
  std::fill(bit3_.begin(), bit3_.end(), V3::X);

  for (const auto& r : reqs) sim_.add_requirement(r.line, r.value);
  if (sim_.violations() > 0) return false;

  compute_support(reqs);
  // A PI's intermediate value is x or equal to both of its pattern values,
  // and simulation is monotone, so a line's intermediate value, once known,
  // equals its known first- and second-pattern values. A requirement whose
  // intermediate component equals a pattern component (every steady
  // requirement) therefore conflicts on that pattern plane first; probing
  // needs the intermediate plane only for requirements such as x1x.
  hazard_plane_ = std::any_of(reqs.begin(), reqs.end(), [](const auto& r) {
    const V3 mid = r.value.a2;
    return is_specified(mid) && r.value.a1 != mid && r.value.a3 != mid;
  });

  if (cfg.use_implication_seed) {
    const ImplicationResult& imp = implication_.imply(reqs);
    if (!imp.consistent) return false;
    for (std::size_t i = 0; i < cc_.inputs().size(); ++i) {
      const Triple& t = imp.values[cc_.inputs()[i]];
      if (is_specified(t.a1)) apply_bit(i, 0, t.a1);
      if (is_specified(t.a3)) apply_bit(i, 2, t.a3);
    }
    if (sim_.violations() > 0) return false;
  }

  // Main loop: necessary values to fixpoint, then one decision, repeat.
  for (;;) {
    if (!necessary_passes(reqs)) return false;

    // Find an unspecified support bit; prefer the paper's "make a
    // half-specified input steady" decision.
    std::size_t half_input = static_cast<std::size_t>(-1);
    free_bits_.clear();
    for (std::size_t input : support_inputs_) {
      const bool s1 = bit_specified(input, 0);
      const bool s3 = bit_specified(input, 2);
      if (s1 != s3 && half_input == static_cast<std::size_t>(-1)) {
        half_input = input;
      }
      if (!s1) free_bits_.push_back({input, 0});
      if (!s3) free_bits_.push_back({input, 2});
    }
    if (free_bits_.empty()) break;

    ++stats_.decisions;
    if (half_input != static_cast<std::size_t>(-1)) {
      const bool have1 = bit_specified(half_input, 0);
      const V3 v = have1 ? bit1_[half_input] : bit3_[half_input];
      apply_bit(half_input, have1 ? 2 : 0, v);
    } else {
      const Bit b = free_bits_[rng_.below(free_bits_.size())];
      apply_bit(b.input, b.plane, rng_.coin() ? V3::One : V3::Zero);
    }
    if (sim_.violations() > 0) return false;
  }

  // Fill the bits outside the support of A: they cannot reach any required
  // line, so any fully specified values complete the test and the simulator
  // (which the final check reads) need not see them.
  for (std::size_t i = 0; i < bit1_.size(); ++i) {
    if (!is_specified(bit1_[i])) bit1_[i] = rng_.coin() ? V3::One : V3::Zero;
    if (!is_specified(bit3_[i])) bit3_[i] = rng_.coin() ? V3::One : V3::Zero;
  }

  return sim_.violations() == 0 && sim_.unsatisfied() == 0;
}

std::optional<TwoPatternTest> JustificationEngine::justify(
    std::span<const ValueRequirement> reqs, const JustifyConfig& cfg) {
  PDF_TRACE_SPAN("atpg.justify");
  static auto& probes_hist =
      runtime::Metrics::global().histogram("atpg.justify.probes");
  const std::uint64_t probes_before = stats_.probes;

  std::optional<TwoPatternTest> result;
  const int attempts = std::max(1, cfg.max_attempts);
  for (int k = 0; k < attempts; ++k) {
    if (attempt(reqs, cfg)) {
      ++stats_.successes;
      TwoPatternTest t;
      t.pi_values.resize(bit1_.size());
      for (std::size_t i = 0; i < bit1_.size(); ++i) {
        t.pi_values[i] = pi_triple(bit1_[i], bit3_[i]);
      }
      result = std::move(t);
      break;
    }
  }
  if (!result) ++stats_.failures;
  probes_hist.record(stats_.probes - probes_before);
  return result;
}

}  // namespace pdf
