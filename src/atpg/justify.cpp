#include "atpg/justify.hpp"

#include <algorithm>
#include <climits>
#include <utility>

#include "obs/trace.hpp"
#include "runtime/metrics.hpp"
#include "sim/packed_eval.hpp"
#include "sim/triple_sim.hpp"

namespace pdf {
namespace {

constexpr std::uint64_t kAllLanes = ~std::uint64_t{0};

/// One pattern bit of a PI in lane word `w`: its value on every lane when
/// specified; otherwise x, except on the bit's own lanes 2j (value 0) and
/// 2j+1 (value 1) when they fall in this word.
void bit_lanes(V3 v, int j, std::size_t w, std::uint64_t& value,
               std::uint64_t& known) {
  if (is_specified(v)) {
    known = kAllLanes;
    value = v == V3::One ? kAllLanes : 0;
    return;
  }
  known = value = 0;
  if (j >= 0 && static_cast<std::size_t>(2 * j) / 64 == w) {
    const unsigned shift = static_cast<unsigned>(2 * j) % 64;
    known = std::uint64_t{3} << shift;
    value = std::uint64_t{2} << shift;
  }
}

}  // namespace

JustificationEngine::JustificationEngine(const Netlist& nl, std::uint64_t seed)
    : cc_(nl), implication_(cc_), rng_(seed) {
  bit1_.assign(cc_.inputs().size(), V3::X);
  bit3_.assign(cc_.inputs().size(), V3::X);
  lane_bit1_.assign(cc_.inputs().size(), -1);
  lane_bit3_.assign(cc_.inputs().size(), -1);
  visit_mark_.assign(cc_.node_count(), 0);
  want1_.assign(cc_.node_count(), 0);
  want0_.assign(cc_.node_count(), 0);
  queued_.assign(cc_.node_count(), 0);
  buckets_.resize(static_cast<std::size_t>(cc_.depth()) + 1);
  check_.resize(cc_.node_count());
}

bool JustificationEngine::bit_specified(std::size_t input, int plane) const {
  return is_specified(plane == 0 ? bit1_[input] : bit3_[input]);
}

void JustificationEngine::compute_support(
    std::span<const ValueRequirement> reqs) {
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
      support_inputs_.push_back(static_cast<std::size_t>(idx));
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

void JustificationEngine::write_input_lanes(std::size_t input) {
  const NodeId id = cc_.inputs()[input];
  for (std::size_t w = 0; w < words_; ++w) {
    LanePlane& p0 = plane_word(0, w)[id];
    LanePlane& p1 = plane_word(1, w)[id];
    LanePlane& p2 = plane_word(2, w)[id];
    save_word(p0);
    save_word(p1);
    save_word(p2);
    bit_lanes(bit1_[input], lane_bit1_[input], w, p0.value, p0.known);
    bit_lanes(bit3_[input], lane_bit3_[input], w, p2.value, p2.known);
    // pi_triple per lane: the intermediate value is the pattern value where
    // both patterns are known and agree.
    p1.known = p0.known & p2.known & ~(p0.value ^ p2.value);
    p1.value = p0.value & p1.known;
  }
}

void JustificationEngine::record_conflicts(NodeId id) {
  const std::uint8_t w1 = want1_[id];
  const std::uint8_t w0 = want0_[id];
  if ((w1 | w0) == 0) return;
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t c = 0;
    for (int q = 0; q < 3; ++q) {
#ifdef PATHDELAY_MUTATION_LANE_HAZARD_PLANE
      // Seeded bug (mutation testing only): the lane conflict mask ignores
      // the intermediate (hazard) plane, so a probe that only breaks a
      // hazard-freedom demand is not seen as a conflict. The final
      // from-scratch check still rejects invalid tests, so only the
      // justifier's decisions change — justify_agrees must catch it.
      if (q == 1) continue;
#endif
      if (!plane_simulated(q)) continue;
      const LanePlane& p = plane_word(q, w)[id];
      if ((w1 >> q) & 1) c |= p.known & ~p.value;
      if ((w0 >> q) & 1) c |= p.value;  // a value bit implies its known bit
    }
    conflict_[w] |= c;
  }
}

void JustificationEngine::init_lanes(std::span<const ValueRequirement> reqs) {
  lane_bits_.clear();
  for (std::size_t input : support_inputs_) {
    lane_bit1_[input] = lane_bit3_[input] = -1;
    if (!bit_specified(input, 0)) {
      lane_bit1_[input] = static_cast<int>(lane_bits_.size());
      lane_bits_.push_back({input, 0});
    }
    if (!bit_specified(input, 2)) {
      lane_bit3_[input] = static_cast<int>(lane_bits_.size());
      lane_bits_.push_back({input, 2});
    }
  }
  // Two lanes per bit plus the reference lane at 2 * lane_bits_.size().
  words_ = (2 * lane_bits_.size() + 1 + 63) / 64;
  const std::size_t need = words_ * cc_.node_count();
  for (auto& plane : lanes_) {
    if (plane.size() < need) plane.resize(need);
  }
  conflict_.assign(words_, 0);

  for (std::size_t input : support_inputs_) write_input_lanes(input);
  for (std::size_t w = 0; w < words_; ++w) {
    for (int q = 0; q < 3; ++q) {
      if (!plane_simulated(q)) continue;
      LanePlane* const plane = plane_word(q, w);
      for (NodeId id : cone_gates_) sim::eval_packed_gate(cc_, id, plane);
    }
  }
  lane_gate_evals_ += words_ * cone_gates_.size();
  for (const auto& r : reqs) record_conflicts(r.line);
}

void JustificationEngine::apply_bit(std::size_t input, int plane, V3 v) {
  (plane == 0 ? bit1_[input] : bit3_[input]) = v;
  ++lane_updates_;
  write_input_lanes(input);
  const NodeId pi = cc_.inputs()[input];
  record_conflicts(pi);

  // Re-evaluate the PI's fanout inside the cone, level by level, so each
  // gate is evaluated once, after all of its changed fanins.
  int lo = INT_MAX;
  int hi = -1;
  const auto enqueue_fanouts = [&](NodeId id) {
    for (NodeId f : cc_.fanouts(id)) {
      if (!visit_mark_[f] || queued_[f]) continue;
      queued_[f] = 1;
      const int level = cc_.level(f);
      buckets_[static_cast<std::size_t>(level)].push_back(f);
      lo = std::min(lo, level);
      hi = std::max(hi, level);
    }
  };
  enqueue_fanouts(pi);
#ifdef PATHDELAY_MUTATION_LANE_STALE_FANOUT
  // Seeded bug (mutation testing only): the update skips the first gate it
  // dequeues, leaving that gate and its fanout stale on every lane. The
  // final from-scratch check still rejects invalid tests, so only the
  // justifier's decisions change — justify_agrees must catch it.
  bool skip = true;
#endif
  for (int level = lo; level <= hi; ++level) {
    std::vector<NodeId>& bucket = buckets_[static_cast<std::size_t>(level)];
    for (NodeId id : bucket) {
      queued_[id] = 0;
#ifdef PATHDELAY_MUTATION_LANE_STALE_FANOUT
      if (std::exchange(skip, false)) continue;
#endif
      bool changed = false;
      for (std::size_t w = 0; w < words_; ++w) {
        for (int q = 0; q < 3; ++q) {
          if (!plane_simulated(q)) continue;
          LanePlane* const lanes = plane_word(q, w);
          const LanePlane before = lanes[id];
          sim::eval_packed_gate(cc_, id, lanes);
          const bool moved = lanes[id].value != before.value ||
                             lanes[id].known != before.known;
          changed |= moved;
          if (recording_ && moved) trail_.push_back({&lanes[id], before});
        }
      }
      lane_gate_evals_ += words_;
      if (!changed) continue;
      record_conflicts(id);
      enqueue_fanouts(id);
    }
    bucket.clear();
  }
}

bool JustificationEngine::necessary_passes(std::uint64_t& probes,
                                           std::uint64_t& passes) {
  bool progress = true;
  while (progress) {
    progress = false;
    ++passes;
    // Scan the lanes in probing order. A forced bit is applied at once, so
    // every later bit of the pass is read against the updated state.
    for (std::size_t j = 0; j < lane_bits_.size(); ++j) {
      const Bit b = lane_bits_[j];
      if (bit_specified(b.input, b.plane)) continue;
      probes += 2;
      const bool c0 = lane_conflicts(2 * j);
      const bool c1 = lane_conflicts(2 * j + 1);
      if (c0 && c1) return false;
      if (c0 != c1) {
        apply_bit(b.input, b.plane, c0 ? V3::One : V3::Zero);
        if (ref_conflicts()) return false;
        progress = true;
      }
    }
  }
  return true;
}

bool JustificationEngine::satisfies(std::span<const ValueRequirement> reqs) {
  // The planes are independent copies of the logic, so lane q of one word
  // carries plane q and one pass over the cone evaluates all three. check_
  // is not the lane state, which is left as is.
  LanePlane* const check = check_.data();
  for (std::size_t input : support_inputs_) {
    const Triple t = pi_triple(bit1_[input], bit3_[input]);
    LanePlane& p = check[cc_.inputs()[input]];
    p = {};
    for (int q = 0; q < 3; ++q) {
      if (!is_specified(t[q])) continue;
      p.known |= std::uint64_t{1} << q;
      if (t[q] == V3::One) p.value |= std::uint64_t{1} << q;
    }
  }
  for (NodeId id : cone_gates_) sim::eval_packed_gate(cc_, id, check);
  lane_gate_evals_ += cone_gates_.size();
  for (const auto& r : reqs) {
    const LanePlane& have = check[r.line];
    for (int q = 0; q < 3; ++q) {
      const V3 want = r.value[q];
      if (!is_specified(want)) continue;
      if (!((have.known >> q) & 1) ||
          ((have.value >> q) & 1) != (want == V3::One ? 1u : 0u)) {
        return false;
      }
    }
  }
  return true;
}

bool JustificationEngine::set_wants(std::span<const ValueRequirement> reqs) {
  // The planes on which some requirement wants 1 / 0, per required line.
  for (const auto& r : reqs) {
    for (int q = 0; q < 3; ++q) {
      const std::uint8_t bit = static_cast<std::uint8_t>(1u << q);
      if (r.value[q] == V3::One) want1_[r.line] |= bit;
      if (r.value[q] == V3::Zero) want0_[r.line] |= bit;
    }
  }
  return std::none_of(reqs.begin(), reqs.end(), [&](const auto& r) {
    return (want1_[r.line] & want0_[r.line]) != 0;
  });
}

void JustificationEngine::clear_wants(std::span<const ValueRequirement> reqs) {
  for (const auto& r : reqs) want1_[r.line] = want0_[r.line] = 0;
}

bool JustificationEngine::begin_assignment(
    std::span<const ValueRequirement> reqs, bool seeded) {
  std::fill(bit1_.begin(), bit1_.end(), V3::X);
  std::fill(bit3_.begin(), bit3_.end(), V3::X);

  // The call's implication closure seeds the forced PI values.
  if (seeded) {
    for (std::size_t i = 0; i < cc_.inputs().size(); ++i) {
      const NodeId id = cc_.inputs()[i];
      bit1_[i] = implication_.value(id, 0);
      bit3_[i] = implication_.value(id, 2);
    }
  }

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
  init_lanes(reqs);
  return !ref_conflicts();
}

bool JustificationEngine::attempt(std::span<const ValueRequirement> reqs,
                                  const JustifyConfig& cfg) {
  ++stats_.attempts;
  if (!begin_assignment(reqs, cfg.use_implication_seed)) return false;

  // Main loop: necessary values to fixpoint, then one decision, repeat.
  for (;;) {
    if (!necessary_passes(stats_.probes, stats_.passes)) return false;

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
    if (ref_conflicts()) return false;
  }

  // Fill the bits outside the support of A: they cannot reach any required
  // line, so any fully specified values complete the test and the final
  // check need not see them.
  for (std::size_t i = 0; i < bit1_.size(); ++i) {
    if (!is_specified(bit1_[i])) bit1_[i] = rng_.coin() ? V3::One : V3::Zero;
    if (!is_specified(bit3_[i])) bit3_[i] = rng_.coin() ? V3::One : V3::Zero;
  }

  return satisfies(reqs);
}

std::optional<TwoPatternTest> JustificationEngine::justify(
    std::span<const ValueRequirement> reqs, const JustifyConfig& cfg) {
  if (cfg.use_implication_seed) implication_.clear();
  return justify_more([reqs] { return reqs; }, reqs, cfg);
}

std::optional<TwoPatternTest> JustificationEngine::justify_more(
    const Requirements& source, std::span<const ValueRequirement> added,
    const JustifyConfig& cfg) {
  PDF_TRACE_SPAN("atpg.justify");
  static auto& probes_hist =
      runtime::Metrics::global().histogram("atpg.justify.probes");
  static auto& implication_rejects =
      runtime::Metrics::global().counter("atpg.justify.reject_implication");
  static auto& implied =
      runtime::Metrics::global().counter("atpg.justify.implied");
  const std::uint64_t probes_before = stats_.probes;
  const int attempts = std::max(1, cfg.max_attempts);

  // Implication first, once per call: it needs neither the requirement set
  // nor the support nor the lanes, and nothing before the decisions draws
  // from the RNG, so rejecting here changes no outcome.
  bool consistent = true;
  if (cfg.use_implication_seed) {
    const std::size_t trail_before = implication_.trail_size();
    consistent = implication_.extend(added);
    implied.add(implication_.trail_size() - trail_before);
  }

  std::optional<TwoPatternTest> result;
  if (!consistent) {
    // The closure is deterministic, so every attempt would stop at it.
    stats_.attempts += static_cast<std::uint64_t>(attempts);
    implication_rejects.add(static_cast<std::uint64_t>(attempts));
  } else {
    const std::span<const ValueRequirement> reqs = source();
    set_wants(reqs);
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
    clear_wants(reqs);
  }
  if (!result) ++stats_.failures;

  if (cfg.use_implication_seed) {
    if (result) {
      implication_.commit();
    } else {
      implication_.undo();
    }
  }
  probes_hist.record(stats_.probes - probes_before);
  flush_lane_tallies();
  return result;
}

void JustificationEngine::flush_lane_tallies() {
  static auto& updates =
      runtime::Metrics::global().counter("atpg.justify.lane_updates");
  static auto& gate_evals =
      runtime::Metrics::global().counter("atpg.justify.lane_gate_evals");
  updates.add(std::exchange(lane_updates_, 0));
  gate_evals.add(std::exchange(lane_gate_evals_, 0));
}

JustificationEngine::Search JustificationEngine::search(
    std::span<const ValueRequirement> reqs) {
  std::uint64_t passes = 0;  // BnbStats counts no passes
  if (!necessary_passes(bnb_stats_.probes, passes)) return Search::Unsat;

  // Decision bit: prefer a half-specified input (and try the copy value
  // first, making the input steady) — hazard-freedom constraints on the
  // intermediate plane are only satisfiable through steady inputs, and this
  // ordering reaches such assignments without exhausting the subtree of
  // gratuitous transitions. Falls back to the first free first-pattern bit.
  std::size_t input = static_cast<std::size_t>(-1);
  int plane = 0;
  V3 first_value = V3::Zero;
  for (std::size_t i : support_inputs_) {
    const bool s1 = bit_specified(i, 0);
    const bool s3 = bit_specified(i, 2);
    if (s1 != s3) {
      input = i;
      plane = s1 ? 2 : 0;
      first_value = s1 ? bit1_[i] : bit3_[i];
      break;
    }
    if (!s1 && input == static_cast<std::size_t>(-1)) {
      input = i;
      plane = 0;
      first_value = V3::Zero;
    }
  }
  // Leaf: the support is fully assigned.
  if (input == static_cast<std::size_t>(-1)) {
    return satisfies(reqs) ? Search::Sat : Search::Unsat;
  }

  ++bnb_stats_.decisions;
  // Save point: the trail mark, the support bits and the conflict words.
  const std::size_t mark = trail_.size();
  const std::size_t bits_at = saved_bits_.size();
  const std::size_t conflicts_at = saved_conflicts_.size();
  for (std::size_t i : support_inputs_) {
    saved_bits_.push_back(bit1_[i]);
    saved_bits_.push_back(bit3_[i]);
  }
  saved_conflicts_.insert(saved_conflicts_.end(), conflict_.begin(),
                          conflict_.end());

  Search result = Search::Unsat;
  for (V3 v : {first_value, not3(first_value)}) {
    apply_bit(input, plane, v);
    if (!ref_conflicts()) {
      // Keep the assignment on success; an abort ends the call.
      result = search(reqs);
      if (result != Search::Unsat) break;
    }
#ifdef PATHDELAY_MUTATION_BNB_STALE_BACKTRACK
    // Seeded bug (mutation testing only): the backtrack leaves the newest
    // overwritten lane word stale, so later probes read a value of the
    // abandoned branch. The leaf check is from scratch, so only the search
    // changes — bnb_agrees must catch it.
    if (trail_.size() > mark) trail_.pop_back();
#endif
    while (trail_.size() > mark) {
      *trail_.back().slot = trail_.back().old;
      trail_.pop_back();
    }
    auto bit = saved_bits_.begin() + static_cast<std::ptrdiff_t>(bits_at);
    for (std::size_t i : support_inputs_) {
      bit1_[i] = *bit++;
      bit3_[i] = *bit++;
    }
    const auto conflicts =
        saved_conflicts_.begin() + static_cast<std::ptrdiff_t>(conflicts_at);
    std::copy(conflicts, saved_conflicts_.end(), conflict_.begin());
    if (++bnb_stats_.backtracks > backtrack_limit_) {
      result = Search::Abort;
      break;
    }
  }
  saved_bits_.resize(bits_at);
  saved_conflicts_.resize(conflicts_at);
  return result;
}

BnbResult JustificationEngine::branch_and_bound(
    std::span<const ValueRequirement> reqs, const BnbConfig& cfg) {
  PDF_TRACE_SPAN("atpg.bnb_justify");
  static auto& backtracks_hist =
      runtime::Metrics::global().histogram("atpg.bnb.backtracks");
  ++bnb_stats_.calls;
  const BnbStats before = bnb_stats_;
  backtrack_limit_ = before.backtracks + cfg.max_backtracks;

  // Two contradictory values on one line leave nothing to search.
  Search res = Search::Unsat;
  if (set_wants(reqs)) {
    bool consistent = true;
    if (cfg.use_implication_seed) {
      implication_.clear();
      consistent = implication_.extend(reqs);
    }
    if (consistent && begin_assignment(reqs, cfg.use_implication_seed)) {
      recording_ = true;
      res = search(reqs);
      recording_ = false;
      trail_.clear();
    }
    // The seed is in the bits by now; drop the closure.
    if (cfg.use_implication_seed) implication_.clear();
  }
  clear_wants(reqs);

  BnbResult out;
  switch (res) {
    case Search::Sat:
      out.status = BnbStatus::Satisfiable;
      ++bnb_stats_.sat;
      // Bits outside the support cannot affect any required line: steady 0
      // unless implication fixed them.
      out.test.pi_values.resize(bit1_.size());
      for (std::size_t i = 0; i < bit1_.size(); ++i) {
        out.test.pi_values[i] =
            pi_triple(is_specified(bit1_[i]) ? bit1_[i] : V3::Zero,
                      is_specified(bit3_[i]) ? bit3_[i] : V3::Zero);
      }
      break;
    case Search::Unsat:
      out.status = BnbStatus::Unsatisfiable;
      ++bnb_stats_.unsat;
      break;
    case Search::Abort:
      out.status = BnbStatus::Aborted;
      ++bnb_stats_.aborted;
      break;
  }
  out.backtracks = bnb_stats_.backtracks - before.backtracks;
  out.decisions = bnb_stats_.decisions - before.decisions;
  backtracks_hist.record(out.backtracks);
  flush_lane_tallies();
  return out;
}

}  // namespace pdf
