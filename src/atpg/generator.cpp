#include "atpg/generator.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>

#include "atpg/selection.hpp"
#include "faultsim/fault_sim.hpp"
#include "obs/trace.hpp"
#include "runtime/metrics.hpp"

namespace pdf {

const char* heuristic_name(CompactionHeuristic h) {
  switch (h) {
    case CompactionHeuristic::None: return "uncomp";
    case CompactionHeuristic::Arbitrary: return "arbit";
    case CompactionHeuristic::Length: return "length";
    case CompactionHeuristic::Value: return "values";
  }
  return "?";
}

std::size_t GenerationResult::detected_p0_count() const {
  return static_cast<std::size_t>(
      std::count(detected_p0.begin(), detected_p0.end(), true));
}

std::size_t GenerationResult::detected_p1_count() const {
  return static_cast<std::size_t>(
      std::count(detected_p1.begin(), detected_p1.end(), true));
}

std::size_t GenerationResult::detected_count(std::size_t set) const {
  if (set >= detected.size()) return 0;
  return static_cast<std::size_t>(
      std::count(detected[set].begin(), detected[set].end(), true));
}

namespace {

constexpr std::size_t kNone = SecondaryPicker::kNone;

// One target set during generation: faults, detection flags, the heuristic's
// visit order and the secondary picker over that order.
struct SetState {
  std::span<const TargetFault> faults;
  std::vector<bool> detected;
  std::vector<std::size_t> order;
  SecondaryPicker picker;

  SetState(std::span<const TargetFault> f, std::vector<std::size_t> visit,
           std::size_t node_count, bool rank_by_delta)
      : faults(f),
        detected(f.size(), false),
        order(std::move(visit)),
        picker(f, order, node_count, rank_by_delta) {}
};

class Generator {
 public:
  Generator(const Netlist& nl,
            std::span<const std::span<const TargetFault>> sets,
            const GeneratorConfig& cfg)
      : cfg_(cfg),
        engine_(nl, cfg.seed),
        fsim_(nl),
        union_(nl.node_count()) {
    const bool by_value = cfg.heuristic == CompactionHeuristic::Value;
    sets_.reserve(std::max<std::size_t>(sets.size(), 1));
    for (const auto& s : sets) {
      sets_.emplace_back(s, make_order(s), nl.node_count(), by_value);
    }
    if (sets_.empty()) {
      sets_.emplace_back(std::span<const TargetFault>{},
                         std::vector<std::size_t>{}, nl.node_count(), by_value);
    }
  }

  GenerationResult run() {
    PDF_TRACE_SPAN("atpg.generate");
    auto& metrics = runtime::Metrics::global();
    const auto timer_scope = metrics.timer("atpg.generate").measure();
    const auto start = std::chrono::steady_clock::now();

    SetState& s0 = sets_[0];
    std::vector<bool> primary_tried(s0.faults.size(), false);
    for (;;) {
      const std::size_t primary = next_primary(primary_tried);
      if (primary == kNone) break;
      primary_tried[primary] = true;
      ++result_.stats.primary_attempts;

      auto test = do_justify(s0.faults[primary].requirements);
      if (!test) {
        ++result_.stats.primary_failures;
        continue;
      }

      union_.clear();
      union_.merge(s0.faults[primary].requirements);
      union_.commit();

      if (cfg_.heuristic != CompactionHeuristic::None) {
        // Sets are offered strictly in order: a set-k candidate is selected
        // only once every eligible candidate of sets 0..k-1 was considered.
        for (auto& s : sets_) {
          grow_with_secondaries(s, &s == &s0 ? primary : kNone, *test);
        }
      }

      drop_detected(*test);
      result_.primary_targets.push_back(primary);
      result_.tests.push_back(std::move(*test));
    }

    result_.detected.reserve(sets_.size());
    for (auto& s : sets_) result_.detected.push_back(std::move(s.detected));
    result_.detected_p0 = result_.detected[0];
    if (result_.detected.size() > 1) result_.detected_p1 = result_.detected[1];
    metrics.counter("atpg.tests_generated").add(result_.tests.size());
    result_.stats.justify = engine_.stats();
    result_.stats.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return std::move(result_);
  }

 private:
  std::optional<TwoPatternTest> do_justify(
      std::span<const ValueRequirement> reqs) {
    if (cfg_.use_branch_and_bound) {
      BnbResult r = engine_.branch_and_bound(reqs, cfg_.bnb);
      if (r.status == BnbStatus::Satisfiable) return std::move(r.test);
      return std::nullopt;
    }
    return engine_.justify(reqs, cfg_.justify);
  }

  // Justifies the union after a trial merge of `added`. The greedy engine
  // still holds the closure of the union as of the last accept, so it closes
  // only `added` and builds the sorted union only when implication passes;
  // its commit/undo follows the union's, since accept == justify succeeds.
  std::optional<TwoPatternTest> justify_secondary(
      std::span<const ValueRequirement> added) {
    if (cfg_.use_branch_and_bound) return do_justify(union_.items());
    return engine_.justify_more([this] { return union_.items(); }, added,
                                cfg_.justify);
  }

  std::vector<std::size_t> make_order(std::span<const TargetFault> faults) {
    std::vector<std::size_t> order(faults.size());
    std::iota(order.begin(), order.end(), 0);
    switch (cfg_.heuristic) {
      case CompactionHeuristic::None:
        break;
      case CompactionHeuristic::Arbitrary: {
        // The paper's fault list order is "arbitrary"; ours arrives sorted
        // by length from enumeration, so a deterministic shuffle makes this
        // a genuinely order-agnostic baseline.
        Rng rng(cfg_.seed ^ 0xa5a5a5a5a5a5a5a5ULL);
        for (std::size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1], order[rng.below(i)]);
        }
        break;
      }
      case CompactionHeuristic::Length:
      case CompactionHeuristic::Value:
        // Longest path first (the value heuristic uses this for primaries and
        // re-ranks secondaries by n_Delta dynamically).
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                           return faults[a].fault.length > faults[b].fault.length;
                         });
        break;
    }
    return order;
  }

  std::size_t next_primary(const std::vector<bool>& tried) const {
    const SetState& s0 = sets_[0];
    for (std::size_t idx : s0.order) {
      if (!tried[idx] && !s0.detected[idx]) return idx;
    }
    return kNone;
  }

  // Offers the eligible faults of `set` (all undetected ones but `exclude`,
  // the primary) as secondary targets for the current test, updating `test`
  // and the requirement union on every acceptance. A candidate whose
  // requirements conflict with the union is rejected without justification.
  void grow_with_secondaries(SetState& set, std::size_t exclude,
                             TwoPatternTest& test) {
    PDF_TRACE_SPAN("atpg.select");
    using Clock = std::chrono::steady_clock;
    static auto& select_timer = runtime::Metrics::global().timer("atpg.select");
    static auto& prefilter_counter =
        runtime::Metrics::global().counter("atpg.select.prefilter_rejects");
    static auto& updates_counter =
        runtime::Metrics::global().counter("atpg.select.delta_updates");
    const Clock::time_point start = Clock::now();
    Clock::duration justify_time{};
    const std::uint64_t updates_before = set.picker.delta_updates();
    std::uint64_t prefilter_rejects = 0;

    set.picker.begin(union_, set.detected, exclude);
    std::size_t consecutive_failures = 0;
    for (;;) {
      if (cfg_.max_consecutive_secondary_failures > 0 &&
          consecutive_failures >= cfg_.max_consecutive_secondary_failures) {
        break;
      }
      const std::size_t cand = set.picker.pick();
      if (cand == kNone) break;

      if (set.picker.conflicts(cand)) {
        ++prefilter_rejects;
        ++result_.stats.secondary_rejected;
        ++consecutive_failures;
        continue;
      }
      const std::span<const ValueRequirement> added =
          set.faults[cand].requirements;
      union_.merge(added);
      const Clock::time_point justify_start = Clock::now();
      auto new_test = justify_secondary(added);
      justify_time += Clock::now() - justify_start;
      if (!new_test) {
        union_.undo();
        ++result_.stats.secondary_rejected;
        ++consecutive_failures;
        continue;
      }
      set.picker.apply(union_.commit());
      test = std::move(*new_test);
      ++result_.stats.secondary_accepted;
      consecutive_failures = 0;
    }

    // The timer counts selection alone; the justifications it waited on are
    // the atpg.justify spans nested inside this call's span.
    select_timer.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start - justify_time)
            .count()));
    prefilter_counter.add(prefilter_rejects);
    updates_counter.add(set.picker.delta_updates() - updates_before);
  }

  void drop_detected(const TwoPatternTest& test) {
    const std::vector<Triple> values = fsim_.line_values(test);
    for (auto& set : sets_) {
      for (std::size_t i = 0; i < set.faults.size(); ++i) {
        if (!set.detected[i] && satisfied(values, set.faults[i].requirements)) {
          set.detected[i] = true;
        }
      }
    }
  }

  GeneratorConfig cfg_;
  JustificationEngine engine_;
  FaultSimulator fsim_;
  std::vector<SetState> sets_;
  RequirementUnion union_;
  GenerationResult result_;
};

}  // namespace

GenerationResult generate_tests_multi(
    const Netlist& nl, std::span<const std::span<const TargetFault>> sets,
    const GeneratorConfig& cfg) {
  Generator g(nl, sets, cfg);
  return g.run();
}

GenerationResult generate_tests(const Netlist& nl,
                                std::span<const TargetFault> p0,
                                std::span<const TargetFault> p1,
                                const GeneratorConfig& cfg) {
  const std::span<const TargetFault> sets[] = {p0, p1};
  // A basic (single-set) run keeps detected_p1 empty for clarity.
  if (p1.empty()) {
    const std::span<const TargetFault> only[] = {p0};
    GenerationResult r = generate_tests_multi(nl, only, cfg);
    return r;
  }
  return generate_tests_multi(nl, sets, cfg);
}

}  // namespace pdf
