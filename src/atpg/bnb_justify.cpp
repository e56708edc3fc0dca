#include "atpg/bnb_justify.hpp"

#include "atpg/support.hpp"
#include "obs/trace.hpp"
#include "runtime/metrics.hpp"
#include "sim/triple_sim.hpp"

namespace pdf {

BnbJustifier::BnbJustifier(const Netlist& nl)
    : cc_(nl), sim_(cc_), implication_(cc_) {}

bool BnbJustifier::bit_specified(std::size_t input, int plane) const {
  const Triple& t = sim_.pi(input);
  return is_specified(plane == 0 ? t.a1 : t.a3);
}

void BnbJustifier::apply_bit(std::size_t input, int plane, V3 v) {
  const Triple& t = sim_.pi(input);
  const V3 b1 = plane == 0 ? v : t.a1;
  const V3 b3 = plane == 0 ? t.a3 : v;
  sim_.set_pi(input, pi_triple(b1, b3));
}

bool BnbJustifier::probe_conflicts(std::size_t input, int plane, V3 v) {
  ++stats_.probes;
  const std::size_t token = sim_.begin_txn();
  apply_bit(input, plane, v);
  const bool conflict = sim_.violations() > 0;
  sim_.rollback(token);
  return conflict;
}

bool BnbJustifier::propagate_forced() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t input : support_) {
      for (int plane : {0, 2}) {
        if (bit_specified(input, plane)) continue;
        const bool c0 = probe_conflicts(input, plane, V3::Zero);
        const bool c1 = probe_conflicts(input, plane, V3::One);
        if (c0 && c1) return false;
        if (c0 != c1) {
          apply_bit(input, plane, c0 ? V3::One : V3::Zero);
          if (sim_.violations() > 0) return false;
          progress = true;
        }
      }
    }
  }
  return true;
}

BnbJustifier::Search BnbJustifier::solve() {
  if (sim_.violations() > 0) return Search::Unsat;
  if (!propagate_forced()) return Search::Unsat;

  // Decision bit: prefer a half-specified input (and try the copy value
  // first, making the input steady) — hazard-freedom constraints on the
  // intermediate plane are only satisfiable through steady inputs, and this
  // ordering reaches such assignments without exhausting the subtree of
  // gratuitous transitions. Falls back to the first fully-free support bit.
  std::size_t input = static_cast<std::size_t>(-1);
  int plane = 0;
  V3 first_value = V3::Zero;
  for (std::size_t i : support_) {
    const Triple& t = sim_.pi(i);
    const bool s1 = is_specified(t.a1);
    const bool s3 = is_specified(t.a3);
    if (s1 != s3) {
      input = i;
      plane = s1 ? 2 : 0;
      first_value = s1 ? t.a1 : t.a3;
      break;
    }
    if (!s1 && input == static_cast<std::size_t>(-1)) {
      input = i;
      plane = 0;
      first_value = V3::Zero;
    }
  }
  if (input == static_cast<std::size_t>(-1)) {
    // Leaf: support fully assigned. The test is valid only if every
    // requirement component (including intermediate-plane demands that no
    // remaining free input can influence) is covered.
    return sim_.violations() == 0 && sim_.unsatisfied() == 0 ? Search::Sat
                                                             : Search::Unsat;
  }

  ++decisions_this_call_;
  ++stats_.decisions;
  for (V3 v : {first_value, not3(first_value)}) {
    const std::size_t token = sim_.begin_txn();
    apply_bit(input, plane, v);
    if (sim_.violations() == 0) {
      const Search sub = solve();
      if (sub != Search::Unsat) {
        // Keep the assignment on success; aborts unwind entirely.
        if (sub == Search::Sat) {
          sim_.commit(token);
        } else {
          sim_.rollback(token);
        }
        return sub;
      }
    }
    sim_.rollback(token);
    ++backtracks_this_call_;
    ++stats_.backtracks;
    if (backtracks_this_call_ > budget_) return Search::Abort;
  }
  return Search::Unsat;
}

BnbResult BnbJustifier::justify(std::span<const ValueRequirement> reqs,
                                const BnbConfig& cfg) {
  PDF_TRACE_SPAN("atpg.bnb_justify");
  ++stats_.calls;
  backtracks_this_call_ = 0;
  decisions_this_call_ = 0;
  budget_ = cfg.max_backtracks;

  BnbResult out;
  auto finish = [&](BnbStatus st) {
    static auto& backtracks_hist =
        runtime::Metrics::global().histogram("atpg.bnb.backtracks");
    backtracks_hist.record(backtracks_this_call_);
    out.status = st;
    out.backtracks = backtracks_this_call_;
    out.decisions = decisions_this_call_;
    switch (st) {
      case BnbStatus::Satisfiable: ++stats_.sat; break;
      case BnbStatus::Unsatisfiable: ++stats_.unsat; break;
      case BnbStatus::Aborted: ++stats_.aborted; break;
    }
    return out;
  };

  // Two contradictory values on one line leave nothing to search (and the
  // event simulator's requirement merge presumes consistent requirements).
  RequirementSet merged;
  for (const auto& r : reqs) {
    if (!merged.add(r.line, r.value)) return finish(BnbStatus::Unsatisfiable);
  }

  sim_.reset();
  for (const auto& r : reqs) sim_.add_requirement(r.line, r.value);
  if (sim_.violations() > 0) return finish(BnbStatus::Unsatisfiable);

  support_ = support_inputs(cc_, reqs);

  if (cfg.use_implication_seed) {
    const ImplicationResult& imp = implication_.imply(reqs);
    if (!imp.consistent) return finish(BnbStatus::Unsatisfiable);
    for (std::size_t i = 0; i < cc_.inputs().size(); ++i) {
      const Triple& t = imp.values[cc_.inputs()[i]];
      if (is_specified(t.a1)) apply_bit(i, 0, t.a1);
      if (is_specified(t.a3)) apply_bit(i, 2, t.a3);
    }
    if (sim_.violations() > 0) return finish(BnbStatus::Unsatisfiable);
  }

  const Search res = solve();
  if (res == Search::Abort) return finish(BnbStatus::Aborted);
  if (res == Search::Unsat) return finish(BnbStatus::Unsatisfiable);

  // Fill non-support bits with stable zeros (they cannot affect any
  // required line) and extract the witness.
  for (std::size_t i = 0; i < cc_.inputs().size(); ++i) {
    const Triple& t = sim_.pi(i);
    const V3 b1 = is_specified(t.a1) ? t.a1 : V3::Zero;
    const V3 b3 = is_specified(t.a3) ? t.a3 : V3::Zero;
    out.test.pi_values.push_back(pi_triple(b1, b3));
  }
  return finish(BnbStatus::Satisfiable);
}

}  // namespace pdf
