#include "pdf_check/checks.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <vector>

#include "atpg/generator.hpp"
#include "atpg/justify.hpp"
#include "atpg/selection.hpp"
#include "atpg/test_pattern.hpp"
#include "base/rng.hpp"
#include "enrich/target_sets.hpp"
#include "faults/fault.hpp"
#include "faults/requirements.hpp"
#include "faults/screen.hpp"
#include "faultsim/batch_sim.hpp"
#include "faultsim/fault_sim.hpp"
#include "implication/implication.hpp"
#include "oracle/oracle.hpp"
#include "paths/enumerate.hpp"
#include "paths/path.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/backend.hpp"
#include "sim/triple_sim.hpp"
#include "store/serde.hpp"
#include "store/stage_cache.hpp"
#include "testutil/circuits.hpp"

namespace pdf::check {
namespace {

std::size_t g_base_threads = 1;

std::vector<TwoPatternTest> random_tests(const Netlist& nl, std::uint64_t seed,
                                         std::size_t count) {
  Rng rng(seed);
  std::vector<TwoPatternTest> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(testutil::random_two_pattern_test(rng, nl.inputs().size()));
  }
  return out;
}

/// The oracle's exhaustive path set, or nullopt when the circuit has too many
/// paths to enumerate exhaustively (the case is skipped, not failed).
std::optional<std::vector<oracle::RefPath>> ref_paths(const Netlist& nl) {
  try {
    return oracle::all_complete_paths(nl, 20'000);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

/// Both faults of every reference path, capped (list order: both directions of
/// the first path, then the second, ... — the production faults_for_paths
/// convention).
std::vector<PathDelayFault> faults_of(std::span<const oracle::RefPath> paths,
                                      std::size_t max_paths) {
  std::vector<PathDelayFault> out;
  const std::size_t n = std::min(paths.size(), max_paths);
  out.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const bool rising : {true, false}) {
      PathDelayFault f;
      f.path.nodes = paths[i].nodes;
      f.rising_source = rising;
      f.length = paths[i].length;
      out.push_back(std::move(f));
    }
  }
  return out;
}

std::string describe_test(const TwoPatternTest& t) { return t.patterns_string(); }

std::string describe_fault(const Netlist& nl, const PathDelayFault& f) {
  return fault_to_string(nl, f);
}

// ---- differential: triple simulation ---------------------------------------

std::optional<std::string> check_sim(const Netlist& nl, std::uint64_t seed) {
  const auto tests = random_tests(nl, mix(seed, 0x51), 8);
  for (const auto& t : tests) {
    const std::vector<Triple> prod = simulate(nl, t.pi_values);
    const std::vector<Triple> ref = oracle::simulate(nl, t.pi_values);
    for (NodeId id = 0; id < nl.node_count(); ++id) {
      if (prod[id] != ref[id]) {
        return "sim: node " + nl.node(id).name + " under " + describe_test(t) +
               ": production " + prod[id].str() + " vs oracle " + ref[id].str();
      }
    }
  }
  return std::nullopt;
}

// ---- differential: path enumeration ----------------------------------------

std::optional<std::string> check_paths(const Netlist& nl, std::uint64_t seed) {
  (void)seed;
  const auto ref = ref_paths(nl);
  if (!ref) return std::nullopt;

  const LineDelayModel dm(nl);
  EnumerationConfig cfg;
  cfg.max_faults = 2 * ref->size() + 16;  // never prunes
  const EnumerationResult full = enumerate_longest_paths(dm, cfg);
  if (full.paths.size() != ref->size()) {
    return "paths: production enumerated " + std::to_string(full.paths.size()) +
           " complete paths, oracle " + std::to_string(ref->size());
  }
  std::map<std::vector<NodeId>, int> by_nodes;
  for (const auto& p : *ref) by_nodes.emplace(p.nodes, p.length);
  int prev = full.paths.empty() ? 0 : full.paths.front().length;
  for (const auto& p : full.paths) {
    const auto it = by_nodes.find(p.path.nodes);
    if (it == by_nodes.end()) {
      return "paths: production path not in oracle set (or duplicated)";
    }
    if (it->second != p.length) {
      return "paths: length of a path: production " + std::to_string(p.length) +
             " vs oracle " + std::to_string(it->second);
    }
    if (p.length > prev) return "paths: result not sorted by descending length";
    prev = p.length;
  }

  // Bounded run: the survivors must be the K longest paths of the full set
  // (as a length multiset; ties may break either way).
  if (ref->size() >= 4) {
    EnumerationConfig bounded_cfg;
    bounded_cfg.max_faults = ref->size();  // about half the paths survive
    const EnumerationResult bounded = enumerate_longest_paths(dm, bounded_cfg);
    if (bounded.paths.size() > ref->size()) {
      return "paths: bounded run produced more paths than exist";
    }
    for (std::size_t i = 0; i < bounded.paths.size(); ++i) {
      if (bounded.paths[i].length != (*ref)[i].length) {
        return "paths: bounded survivor " + std::to_string(i) + " has length " +
               std::to_string(bounded.paths[i].length) +
               ", oracle's i-th longest is " + std::to_string((*ref)[i].length);
      }
    }
  }
  return std::nullopt;
}

// ---- differential: requirement construction and n_delta --------------------

std::optional<std::string> check_requirements(const Netlist& nl,
                                              std::uint64_t seed) {
  (void)seed;
  const auto ref = ref_paths(nl);
  if (!ref) return std::nullopt;
  const auto faults = faults_of(*ref, 60);

  std::vector<const PathDelayFault*> usable;
  std::vector<FaultRequirements> usable_reqs;
  for (const auto& f : faults) {
    const FaultRequirements prod = build_requirements(nl, f, Sensitization::Robust);
    const oracle::RefRequirements want = oracle::requirements_by_definition(nl, f);
    if (prod.conflicting != want.conflicting) {
      return "requirements: conflict flag of " + describe_fault(nl, f) +
             ": production " + std::to_string(prod.conflicting) + " vs oracle " +
             std::to_string(want.conflicting);
    }
    if (prod.conflicting) continue;
    if (prod.values.size() != want.values.size()) {
      return "requirements: " + describe_fault(nl, f) + ": production has " +
             std::to_string(prod.values.size()) + " requirements, oracle " +
             std::to_string(want.values.size());
    }
    for (std::size_t i = 0; i < prod.values.size(); ++i) {
      if (!(prod.values[i] == want.values[i])) {
        return "requirements: " + describe_fault(nl, f) + " line " +
               nl.node(want.values[i].line).name + ": production " +
               prod.values[i].value.str() + " vs oracle " +
               want.values[i].value.str();
      }
    }
    usable.push_back(&f);
    usable_reqs.push_back(prod);
  }

  // The secondary picker's n_delta against the set-based definition.
  for (std::size_t a = 0; a + 1 < usable.size() && a < 8; ++a) {
    RequirementUnion u(nl.node_count());
    u.merge(usable_reqs[a].values);
    u.commit();
    const auto& want = usable_reqs[a + 1].values;
    const TargetFault candidate[] = {TargetFault{*usable[a + 1], want}};
    const std::size_t order[] = {0};
    SecondaryPicker picker(candidate, order, nl.node_count(), true);
    picker.begin(u, std::vector<bool>(1, false));
    const std::size_t prod = picker.delta(0);
    const std::size_t ref_delta = oracle::delta_count(u.items(), want);
    if (prod != ref_delta) {
      return "delta_count: production " + std::to_string(prod) + " vs oracle " +
             std::to_string(ref_delta) + " for " +
             describe_fault(nl, *usable[a + 1]) + " against " +
             describe_fault(nl, *usable[a]);
    }
  }
  return std::nullopt;
}

// ---- differential: secondary-target selection ------------------------------

std::optional<std::string> check_selection(const Netlist& nl,
                                           std::uint64_t seed) {
  // Candidates: the circuit's robust path faults plus random requirement sets
  // (one value per line, so never self-conflicting) that collide with each
  // other and with the paths far more often than real faults do.
  std::vector<TargetFault> faults;
  if (const auto ref = ref_paths(nl)) {
    for (const auto& f : faults_of(*ref, 30)) {
      FaultRequirements reqs = build_requirements(nl, f, Sensitization::Robust);
      if (reqs.conflicting) continue;
      faults.push_back(TargetFault{f, std::move(reqs.values)});
    }
  }
  Rng rng(mix(seed, 0x5e));
  static const Triple kChoices[] = {kSteady0, kSteady1, kRise,
                                    kFall,    kFinal0,  kFinal1};
  for (int k = 0; k < 20; ++k) {
    std::map<NodeId, Triple> lines;
    const std::size_t n = 1 + rng.below(6);
    for (std::size_t j = 0; j < n; ++j) {
      lines.emplace(static_cast<NodeId>(rng.below(nl.node_count())),
                    kChoices[rng.below(6)]);
    }
    TargetFault tf;
    for (const auto& [line, value] : lines) tf.requirements.push_back({line, value});
    faults.push_back(std::move(tf));
  }

  std::vector<std::size_t> order(faults.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }

  // One picker across several tests, as in the generator: begin() must
  // discard whatever the previous test's script left behind.
  SecondaryPicker picker(faults, order, nl.node_count(), true);
  RequirementUnion u(nl.node_count());
  for (int round = 0; round < 4; ++round) {
    const std::size_t max_failures = rng.coin() ? 0 : 1 + rng.below(3);
    std::vector<bool> detected(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) detected[i] = rng.below(5) == 0;
    const std::size_t primary = rng.below(faults.size());
    detected[primary] = false;
    std::vector<bool> eligible(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      eligible[i] = !detected[i] && i != primary;
    }

    u.clear();
    u.merge(faults[primary].requirements);
    u.commit();
    std::vector<ValueRequirement> have =
        oracle::merge({}, faults[primary].requirements);
    picker.begin(u, detected, primary);

    std::size_t failures = 0;
    for (std::size_t step = 0;; ++step) {
      if (max_failures > 0 && failures >= max_failures) break;
      const std::size_t got = picker.pick();
      const std::size_t want = oracle::pick_secondary(have, faults, order, eligible);
      const std::string where = "selection: round " + std::to_string(round) +
                                " pick " + std::to_string(step) + ": ";
      if (got != want) {
        // Each side's pick with that side's own n_delta for it.
        const auto describe = [&](std::size_t i, bool production) {
          if (i == SecondaryPicker::kNone) return std::string("none");
          const std::size_t d =
              production ? picker.delta(i)
                         : oracle::delta_count(have, faults[i].requirements);
          return "fault " + std::to_string(i) + " (n_delta " +
                 std::to_string(d) + ")";
        };
        return where + "production " + describe(got, true) + " vs reference " +
               describe(want, false);
      }
      if (want == SecondaryPicker::kNone) break;
      eligible[want] = false;
      const auto& reqs = faults[want].requirements;
      if (picker.delta(want) != oracle::delta_count(have, reqs)) {
        return where + "n_delta of fault " + std::to_string(want) +
               ": production " + std::to_string(picker.delta(want)) +
               " vs reference " +
               std::to_string(oracle::delta_count(have, reqs));
      }
      if (picker.conflicts(want) != oracle::conflicts(have, reqs)) {
        return where + "conflict flag of fault " + std::to_string(want) +
               ": production " + std::to_string(picker.conflicts(want)) +
               " vs reference " + std::to_string(oracle::conflicts(have, reqs));
      }
      if (picker.conflicts(want)) {
        ++failures;
        continue;
      }
      u.merge(reqs);
      if (rng.below(3) == 0) {  // the justifier said no
        u.undo();
        ++failures;
      } else {
        picker.apply(u.commit());
        have = oracle::merge(have, reqs);
        failures = 0;
      }
      const auto items = u.items();
      if (!std::equal(items.begin(), items.end(), have.begin(), have.end())) {
        return where + "requirement union differs from the reference merge";
      }
    }
  }
  return std::nullopt;
}

// ---- differential: incremental implication ---------------------------------

/// A random requirement set: one to three lines, each a random triple with at
/// least one specified component (lines may repeat, with clashing values).
std::vector<ValueRequirement> random_requirements(const Netlist& nl, Rng& rng) {
  static const V3 kValues[] = {V3::Zero, V3::One, V3::X};
  std::vector<ValueRequirement> reqs;
  const std::size_t n = 1 + rng.below(3);
  for (std::size_t j = 0; j < n; ++j) {
    Triple t{kValues[rng.below(3)], kValues[rng.below(3)],
             kValues[rng.below(3)]};
    if (t.all_x()) t.a2 = kValues[rng.below(2)];
    reqs.push_back({static_cast<NodeId>(rng.below(nl.node_count())), t});
  }
  return reqs;
}

std::optional<std::string> check_implication(const Netlist& nl,
                                             std::uint64_t seed) {
  // Steps: the robust path faults of the longest paths, which often
  // contradict each other, and random triples such as x1x, one per line.
  const LineDelayModel dm(nl);
  EnumerationConfig ecfg;
  ecfg.max_faults = 40;
  std::vector<std::vector<ValueRequirement>> sets;
  for (const auto& f :
       faults_for_paths(enumerate_longest_paths(dm, ecfg).paths)) {
    FaultRequirements reqs = build_requirements(nl, f, Sensitization::Robust);
    if (!reqs.conflicting) sets.push_back(std::move(reqs.values));
  }
  Rng rng(mix(seed, 0x1c));
  for (int k = 0; k < 10; ++k) sets.push_back(random_requirements(nl, rng));

  // A generator-like script per round: extend, then commit (accept), undo
  // (reject) or extend again on top; after a contradiction undo or clear.
  // After every step the incremental engine must equal a new engine's
  // from-scratch closure of what it has accumulated.
  const CompiledCircuit cc(nl);
  ImplicationEngine inc(cc);
  std::vector<ValueRequirement> committed, pending;
  for (int round = 0; round < 4; ++round) {
    inc.clear();
    committed.clear();
    pending.clear();
    for (int step = 0; step < 12; ++step) {
      const std::string where = "implication: round " + std::to_string(round) +
                                " step " + std::to_string(step) + ": ";
      // Compares `inc` with the from-scratch closure of `reqs`; the values
      // only when both are consistent.
      const auto compare =
          [&](const std::vector<ValueRequirement>& reqs, bool consistent,
              const char* after) -> std::optional<std::string> {
        ImplicationEngine fresh(cc);
        const ImplicationResult& want = fresh.imply(reqs);
        if (consistent != want.consistent) {
          return where + after + ": incremental " +
                 (consistent ? "consistent" : "contradiction") +
                 ", from-scratch " +
                 (want.consistent ? "consistent" : "contradiction") + " (" +
                 std::to_string(reqs.size()) + " requirements)";
        }
        if (!consistent) return std::nullopt;
        for (NodeId id = 0; id < nl.node_count(); ++id) {
          for (int q = 0; q < 3; ++q) {
            if (inc.value(id, q) == want.values[id][q]) continue;
            return where + after + ": node " + nl.node(id).name + " plane " +
                   std::to_string(q) + ": incremental " +
                   to_char(inc.value(id, q)) + ", from-scratch " +
                   to_char(want.values[id][q]);
          }
        }
        return std::nullopt;
      };

      const auto& add = sets[rng.below(sets.size())];
      pending.insert(pending.end(), add.begin(), add.end());
      const bool consistent = inc.extend(add);
      if (auto bad = compare(pending, consistent, "extend")) return bad;
      const char* after = nullptr;
      if (!consistent && rng.coin()) {
        inc.clear();
        committed.clear();
        after = "clear after a contradiction";
      } else if (!consistent || rng.below(3) == 0) {
        inc.undo();
        after = consistent ? "undo" : "undo after a contradiction";
      } else if (rng.below(4) == 0) {
        continue;  // the next step extends on top of this one
      } else {
        inc.commit();
        committed = pending;
        after = "commit";
      }
      pending = committed;
      if (auto bad = compare(committed, true, after)) return bad;
    }
  }
  return std::nullopt;
}

// ---- differential: lane-batched screening ----------------------------------

std::optional<std::string> check_screen(const Netlist& nl, std::uint64_t seed) {
  const LineDelayModel dm(nl);
  EnumerationConfig ecfg;
  ecfg.max_faults = 200;
  const std::vector<PathDelayFault> pool =
      faults_for_paths(enumerate_longest_paths(dm, ecfg).paths);
  Rng rng(mix(seed, 0x5c));
  const std::size_t lanes = LaneImplication::kLanes;
  const CompiledCircuit cc(nl);
  ImplicationEngine engine(cc);

  // screen_faults against the per-fault loop it replaces, on a fault list
  // drawn from the pool (with repeats) that fills one batch and ends in a
  // partial second one.
  if (!pool.empty()) {
    std::vector<PathDelayFault> faults;
    const std::size_t n = lanes + 1 + rng.below(lanes - 1);
    for (std::size_t i = 0; i < n; ++i) {
      faults.push_back(pool[rng.below(pool.size())]);
    }
    for (const Sensitization sens :
         {Sensitization::Robust, Sensitization::NonRobust}) {
      const std::string where =
          std::string("screen (") +
          (sens == Sensitization::Robust ? "robust" : "non-robust") + ", " +
          std::to_string(n) + " faults): ";
      ScreenStats want;
      const auto kept_want = oracle::screen_faults(nl, faults, want, sens);
      ScreenStats got;
      const auto kept = screen_faults(nl, faults, &got, sens);
      if (got.input_faults != want.input_faults ||
          got.conflict_dropped != want.conflict_dropped ||
          got.implication_dropped != want.implication_dropped ||
          got.kept != want.kept) {
        return where + "stats: lane batches dropped " +
               std::to_string(got.conflict_dropped) + " + " +
               std::to_string(got.implication_dropped) + " and kept " +
               std::to_string(got.kept) + ", per-fault loop " +
               std::to_string(want.conflict_dropped) + " + " +
               std::to_string(want.implication_dropped) + " and kept " +
               std::to_string(want.kept);
      }
      for (std::size_t i = 0; i < kept.size(); ++i) {
        if (kept[i].fault.path != kept_want[i].fault.path ||
            kept[i].fault.rising_source != kept_want[i].fault.rising_source ||
            kept[i].fault.length != kept_want[i].fault.length) {
          return where + "survivor " + std::to_string(i) + " is " +
                 describe_fault(nl, kept[i].fault) + ", per-fault loop " +
                 describe_fault(nl, kept_want[i].fault);
        }
        if (kept[i].requirements != kept_want[i].requirements) {
          return where + "requirements of survivor " + std::to_string(i) +
                 " (" + describe_fault(nl, kept[i].fault) + ") differ";
        }
      }
    }
  }

  // The lane closure itself on random requirement sets, each lane the union
  // of one to three sets from the path faults and random triples: every
  // lane's verdict must be the worklist engine's.
  std::vector<std::vector<ValueRequirement>> sets;
  for (const auto& f : pool) {
    FaultRequirements reqs = build_requirements(nl, f, Sensitization::Robust);
    if (!reqs.conflicting) sets.push_back(std::move(reqs.values));
  }
  for (int k = 0; k < 20; ++k) sets.push_back(random_requirements(nl, rng));
  LaneImplication closure(cc);
  for (int round = 0; round < 2; ++round) {
    closure.clear();
    std::vector<std::vector<ValueRequirement>> lane_sets;
    const std::size_t n = 1 + rng.below(lanes);
    for (std::size_t lane = 0; lane < n; ++lane) {
      std::vector<ValueRequirement> reqs;
      for (std::size_t j = 1 + rng.below(3); j > 0; --j) {
        const auto& add = sets[rng.below(sets.size())];
        reqs.insert(reqs.end(), add.begin(), add.end());
      }
      closure.add(reqs);
      lane_sets.push_back(std::move(reqs));
    }
    closure.close();
    for (std::size_t lane = 0; lane < n; ++lane) {
      const bool want = engine.contradicts(lane_sets[lane]);
      if (closure.contradicts(lane) != want) {
        return "screen: lane closure, round " + std::to_string(round) +
               ", lane " + std::to_string(lane) + " of " + std::to_string(n) +
               " (" + std::to_string(lane_sets[lane].size()) +
               " requirements): lanes " +
               (want ? "consistent" : "contradiction") + ", worklist " +
               (want ? "contradiction" : "consistent");
      }
    }
  }
  return std::nullopt;
}

// ---- differential: greedy justification ------------------------------------

/// "probes 12 vs 14, passes 3 vs 4" over the JustifyStats fields that differ.
std::string stats_diff(const JustifyStats& a, const JustifyStats& b) {
  std::string out;
  const auto field = [&](const char* name, std::uint64_t x, std::uint64_t y) {
    if (x == y) return;
    if (!out.empty()) out += ", ";
    out += std::string(name) + " " + std::to_string(x) + " vs " +
           std::to_string(y);
  };
  field("attempts", a.attempts, b.attempts);
  field("probes", a.probes, b.probes);
  field("passes", a.passes, b.passes);
  field("decisions", a.decisions, b.decisions);
  field("successes", a.successes, b.successes);
  field("failures", a.failures, b.failures);
  return out;
}

std::optional<std::string> check_justify(const Netlist& nl, std::uint64_t seed) {
  // Requirement sets: the robust path faults of the longest paths, then
  // conflict-free unions of them — what secondary selection hands the
  // justifier — then random triples, one per line. A path requirement that
  // specifies the intermediate plane is steady, and a steady line whose
  // intermediate value is known is known at that value in both patterns,
  // so path sets never show a conflict on the intermediate plane alone;
  // the random triples (e.g. x1x) do.
  const LineDelayModel dm(nl);
  EnumerationConfig ecfg;
  ecfg.max_faults = 40;
  std::vector<std::vector<ValueRequirement>> sets;
  for (const auto& f :
       faults_for_paths(enumerate_longest_paths(dm, ecfg).paths)) {
    FaultRequirements reqs = build_requirements(nl, f, Sensitization::Robust);
    if (!reqs.conflicting) sets.push_back(std::move(reqs.values));
  }
  Rng rng(mix(seed, 0x1f));
  const std::size_t singles = sets.size();
  for (int k = 0; k < 10 && singles > 0; ++k) {
    std::vector<ValueRequirement> u = sets[rng.below(singles)];
    for (int m = 0; m < 3; ++m) {
      const auto& more = sets[rng.below(singles)];
      if (!oracle::conflicts(u, more)) u = oracle::merge(u, more);
    }
    sets.push_back(std::move(u));
  }
  static const V3 kValues[] = {V3::Zero, V3::One, V3::X};
  for (int k = 0; k < 10; ++k) {
    std::map<NodeId, Triple> lines;
    const std::size_t n = 1 + rng.below(4);
    for (std::size_t j = 0; j < n; ++j) {
      Triple t{kValues[rng.below(3)], kValues[rng.below(3)],
               kValues[rng.below(3)]};
      if (t.all_x()) t.a2 = kValues[rng.below(2)];
      lines.emplace(static_cast<NodeId>(rng.below(nl.node_count())), t);
    }
    std::vector<ValueRequirement> reqs;
    for (const auto& [line, value] : lines) reqs.push_back({line, value});
    sets.push_back(std::move(reqs));
  }

  // One engine and one reference generator across every set, as in the
  // generator: a divergence in RNG draws shows up on later sets too.
  const std::uint64_t jseed = mix(seed, 0x1e);
  JustificationEngine engine(nl, jseed);
  Rng ref_rng(jseed);
  JustifyStats ref_stats;
  JustifyConfig cfg;
  cfg.use_implication_seed = false;
  for (std::size_t k = 0; k < sets.size(); ++k) {
    cfg.max_attempts = 1 + static_cast<int>(rng.below(2));
    std::vector<oracle::JustifyEvent> trace;
    const auto got = engine.justify(sets[k], cfg);
    const auto want = oracle::justify(nl, sets[k], ref_rng, ref_stats,
                                      cfg.max_attempts, &trace);
    const std::string counts = stats_diff(engine.stats(), ref_stats);
    const bool same_test = got.has_value() == want.has_value() &&
                           (!got || got->pi_values == want->pi_values);
    if (same_test && counts.empty()) continue;

    // Localize: the first assignment of the reference's final attempt that
    // the engine's test contradicts, else the reference's last assignment.
    const auto bit_name = [&](const oracle::JustifyEvent& e) {
      return nl.node(nl.inputs()[e.input]).name +
             (e.plane == 0 ? " (first pattern)" : " (second pattern)");
    };
    const auto kind_name = [](oracle::JustifyEvent::Kind kind) {
      switch (kind) {
        case oracle::JustifyEvent::Kind::Forced: return "forced";
        case oracle::JustifyEvent::Kind::Decision: return "decided";
        case oracle::JustifyEvent::Kind::Fill: return "filled";
      }
      return "assigned";
    };
    std::string where;
    if (got && want) {
      for (const auto& e : trace) {
        if (e.attempt != trace.back().attempt) continue;
        const Triple& t = got->pi_values[e.input];
        const V3 have = e.plane == 0 ? t.a1 : t.a3;
        if (have == e.value) continue;
        where = "attempt " + std::to_string(e.attempt) + " pass " +
                std::to_string(e.pass) + ", bit " + bit_name(e) +
                ": reference " + kind_name(e.kind) + " " + to_char(e.value) +
                ", engine's test has " + to_char(have);
        break;
      }
    } else if (!trace.empty()) {
      const auto& e = trace.back();
      where = "reference's last assignment: attempt " +
              std::to_string(e.attempt) + " pass " + std::to_string(e.pass) +
              ", bit " + bit_name(e) + " " + kind_name(e.kind) + " " +
              to_char(e.value);
    }
    std::string msg = "justify: requirement set " + std::to_string(k) +
                      " (" + std::to_string(sets[k].size()) +
                      " requirements): engine " +
                      (got ? "succeeded" : "failed") + ", reference " +
                      (want ? "succeeded" : "failed");
    if (!counts.empty()) msg += "; stats engine vs reference: " + counts;
    if (!where.empty()) msg += "; " + where;
    return msg;
  }
  return std::nullopt;
}

// ---- differential: branch-and-bound justification -------------------------

std::string status_name(BnbStatus s) {
  switch (s) {
    case BnbStatus::Satisfiable: return "satisfiable";
    case BnbStatus::Unsatisfiable: return "unsatisfiable";
    case BnbStatus::Aborted: return "aborted";
  }
  return "?";
}

std::optional<std::string> check_bnb(const Netlist& nl, std::uint64_t seed) {
  // Requirement sets: the robust path faults of the longest paths, unions of
  // two to four of them (conflicting ones included) and random triples such
  // as x1x, one or more per line.
  const LineDelayModel dm(nl);
  EnumerationConfig ecfg;
  ecfg.max_faults = 30;
  std::vector<std::vector<ValueRequirement>> sets;
  for (const auto& f :
       faults_for_paths(enumerate_longest_paths(dm, ecfg).paths)) {
    FaultRequirements reqs = build_requirements(nl, f, Sensitization::Robust);
    if (!reqs.conflicting) sets.push_back(std::move(reqs.values));
  }
  Rng rng(mix(seed, 0xbb));
  const std::size_t singles = sets.size();
  for (int k = 0; k < 10 && singles > 0; ++k) {
    std::vector<ValueRequirement> u = sets[rng.below(singles)];
    for (std::size_t m = 1 + rng.below(3); m > 0; --m) {
      const auto& more = sets[rng.below(singles)];
      u.insert(u.end(), more.begin(), more.end());
    }
    sets.push_back(std::move(u));
  }
  static const V3 kValues[] = {V3::Zero, V3::One, V3::X};
  for (int k = 0; k < 10; ++k) {
    std::vector<ValueRequirement> reqs;
    const std::size_t n = 1 + rng.below(4);
    for (std::size_t j = 0; j < n; ++j) {
      Triple t{kValues[rng.below(3)], kValues[rng.below(3)],
               kValues[rng.below(3)]};
      if (t.all_x()) t.a2 = kValues[rng.below(2)];
      reqs.push_back({static_cast<NodeId>(rng.below(nl.node_count())), t});
    }
    sets.push_back(std::move(reqs));
  }

  // One engine across every set, as in the generator; tiny budgets reach
  // Aborted, the largest one mostly exact verdicts. The totals agree before
  // every call, so one probe mark serves both.
  static const std::size_t kBudgets[] = {0, 1, 3, 200};
  JustificationEngine engine(nl, mix(seed, 0xbc));
  BnbStats ref_stats;
  BnbConfig cfg;
  cfg.use_implication_seed = false;
  for (std::size_t k = 0; k < sets.size(); ++k) {
    cfg.max_backtracks = kBudgets[rng.below(4)];
    const std::uint64_t probes_before = ref_stats.probes;
    const BnbResult got = engine.branch_and_bound(sets[k], cfg);
    const BnbResult want =
        oracle::branch_and_bound(nl, sets[k], cfg.max_backtracks, ref_stats);
    const BnbStats& s = engine.bnb_stats();
    if (got.status == want.status && got.decisions == want.decisions &&
        got.backtracks == want.backtracks && s.probes == ref_stats.probes &&
        got.test.pi_values == want.test.pi_values) {
      continue;
    }
    const auto describe = [](const BnbResult& r, std::uint64_t probes) {
      return status_name(r.status) + " (decisions " +
             std::to_string(r.decisions) + ", backtracks " +
             std::to_string(r.backtracks) + ", probes " +
             std::to_string(probes) + ")";
    };
    std::string msg =
        "bnb: requirement set " + std::to_string(k) + " (" +
        std::to_string(sets[k].size()) + " requirements, budget " +
        std::to_string(cfg.max_backtracks) + "): engine " +
        describe(got, s.probes - probes_before) + ", reference " +
        describe(want, ref_stats.probes - probes_before);
    if (got.status == want.status && got.status == BnbStatus::Satisfiable) {
      msg += "; witnesses " + describe_test(got.test) + " vs " +
             describe_test(want.test);
    }
    return msg;
  }
  return std::nullopt;
}

// ---- differential: fault simulation ----------------------------------------

std::optional<std::string> check_faultsim(const Netlist& nl, std::uint64_t seed) {
  const auto ref = ref_paths(nl);
  if (!ref) return std::nullopt;
  const auto all_faults = faults_of(*ref, 60);

  std::vector<TargetFault> targets;
  std::vector<PathDelayFault> kept;
  for (const auto& f : all_faults) {
    FaultRequirements reqs = build_requirements(nl, f, Sensitization::Robust);
    if (reqs.conflicting) continue;
    targets.push_back(TargetFault{f, std::move(reqs.values)});
    kept.push_back(f);
  }
  if (targets.empty()) return std::nullopt;

  const auto tests = random_tests(nl, mix(seed, 0xf5), 10);
  // The per-test engine, OR-accumulated over the set, and the whole-set
  // engine on the host's default backend.
  const std::vector<bool> scalar =
      testutil::detected_by_any(FaultSimulator(nl), tests, targets);
  const BatchSimulator psim(nl);
  const std::vector<bool> batched = psim.detects_any(tests, targets);
  const std::vector<bool> want = oracle::detects_any(nl, tests, kept);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (scalar[i] != want[i]) {
      return "faultsim: " + describe_fault(nl, kept[i]) + ": FaultSimulator " +
             std::to_string(scalar[i]) + " vs oracle " + std::to_string(want[i]);
    }
    if (batched[i] != want[i]) {
      return "faultsim: " + describe_fault(nl, kept[i]) + ": BatchSimulator[" +
             psim.backend().name() + "] " + std::to_string(batched[i]) +
             " vs oracle " + std::to_string(want[i]);
    }
  }
  return std::nullopt;
}

// ---- differential: cross-backend detection matrices ------------------------

std::optional<std::string> check_backends(const Netlist& nl,
                                          std::uint64_t seed) {
  // Every registered sim::SimBackend must produce the bit-identical
  // detection matrix. The fault list mixes per-line probe requirements
  // (every node x {steady0, steady1, rise, fall} — exercising each plane of
  // each line) with real path faults when the circuit is enumerable; the
  // test count crosses a word boundary so partial-lane masking is covered.
  std::vector<TargetFault> targets;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    for (const Triple& req : {kSteady0, kSteady1, kRise, kFall}) {
      TargetFault tf;
      tf.requirements = {{id, req}};
      targets.push_back(std::move(tf));
    }
  }
  if (const auto ref = ref_paths(nl)) {
    for (const auto& f : faults_of(*ref, 40)) {
      FaultRequirements reqs = build_requirements(nl, f, Sensitization::Robust);
      if (reqs.conflicting) continue;
      targets.push_back(TargetFault{f, std::move(reqs.values)});
    }
  }

  // 300 tests: crosses the 64-lane word boundary with a partial tail AND the
  // 256-lane avx2 boundary, and fills more than one 64-lane subword of every
  // wide word (the lane-shuffle mutation class only shows above lane 64).
  const auto tests = random_tests(nl, mix(seed, 0xbe), 300);
  const auto backends = sim::all_backends();
  std::vector<DetectionMatrix> matrices;
  matrices.reserve(backends.size());
  for (sim::SimBackend* backend : backends) {
    const BatchSimulator fsim(nl, backend);
    matrices.push_back(fsim.detection_matrix(tests, targets));
  }
  // All registered pairs, not just scalar-vs-rest: a defect shared by two
  // packed backends but absent from scalar still shows up as scalar-vs-X,
  // while a defect in exactly one of them is named by the tightest pair.
  for (std::size_t i = 0; i < backends.size(); ++i) {
    for (std::size_t j = i + 1; j < backends.size(); ++j) {
      if (matrices[i] == matrices[j]) continue;
      const char* a = backends[i]->name();
      const char* b = backends[j]->name();
      for (std::size_t f = 0; f < targets.size(); ++f) {
        for (std::size_t t = 0; t < tests.size(); ++t) {
          if (matrices[i].bit(f, t) == matrices[j].bit(f, t)) continue;
          const auto& req = targets[f].requirements.front();
          return std::string("backends: ") + a + " says " +
                 std::to_string(matrices[i].bit(f, t)) + ", " + b + " says " +
                 std::to_string(matrices[j].bit(f, t)) + " for requirement " +
                 nl.node(req.line).name + "=" + req.value.str() + " (fault " +
                 std::to_string(f) + ") under " + describe_test(tests[t]);
        }
      }
      return std::string("backends: ") + a + " and " + b +
             " matrices differ (shape mismatch)";
    }
  }
  return std::nullopt;
}

// ---- ATPG: every generated test detects its primary target -----------------

std::optional<std::string> check_atpg(const Netlist& nl, std::uint64_t seed) {
  TargetSetConfig tcfg;
  tcfg.n_p = 60;
  tcfg.n_p0 = 10;
  const TargetSets ts = build_target_sets(nl, tcfg);
  if (ts.p0.empty()) return std::nullopt;

  GeneratorConfig gcfg;
  gcfg.seed = mix(seed, 0xa7);
  const GenerationResult res = generate_tests(nl, ts.p0, ts.p1, gcfg);
  if (res.primary_targets.size() != res.tests.size()) {
    return "atpg: primary_targets has " +
           std::to_string(res.primary_targets.size()) + " entries for " +
           std::to_string(res.tests.size()) + " tests";
  }
  for (std::size_t i = 0; i < res.tests.size(); ++i) {
    const std::size_t target = res.primary_targets[i];
    if (target >= ts.p0.size()) return "atpg: primary target index out of range";
    if (!oracle::detects(nl, res.tests[i], ts.p0[target].fault)) {
      return "atpg: generated test " + describe_test(res.tests[i]) +
             " does not robustly detect its primary target " +
             describe_fault(nl, ts.p0[target].fault) + " per the oracle";
    }
  }

  // The generator's detection flags are a claim about the whole test set;
  // the oracle must agree fault by fault.
  for (std::size_t set = 0; set < 2; ++set) {
    const auto& targets = set == 0 ? ts.p0 : ts.p1;
    const auto& flags = set == 0 ? res.detected_p0 : res.detected_p1;
    if (targets.empty() || flags.size() != targets.size()) continue;
    std::vector<PathDelayFault> faults;
    for (const auto& t : targets) faults.push_back(t.fault);
    const std::vector<bool> want = oracle::detects_any(nl, res.tests, faults);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (flags[i] != want[i]) {
        return "atpg: detection flag of " + describe_fault(nl, faults[i]) +
               " (set P" + std::to_string(set) + "): generator " +
               std::to_string(flags[i]) + " vs oracle " + std::to_string(want[i]);
      }
    }
  }
  return std::nullopt;
}

// ---- coverage accounting ----------------------------------------------------

std::optional<std::string> check_coverage(const Netlist& nl, std::uint64_t seed) {
  const auto ref = ref_paths(nl);
  if (!ref) return std::nullopt;

  TargetSetConfig tcfg;
  tcfg.n_p = 60;
  tcfg.n_p0 = 10;
  const TargetSets ts = build_target_sets(nl, tcfg);
  if (ts.p0.empty()) return std::nullopt;
  std::vector<PathDelayFault> f0, f1;
  for (const auto& t : ts.p0) f0.push_back(t.fault);
  for (const auto& t : ts.p1) f1.push_back(t.fault);

  const auto tests = random_tests(nl, mix(seed, 0xc0), 8);
  const UnionCoverage cov =
      store::cached_union_coverage(nullptr, nl, tests, ts.p0, ts.p1, tcfg);
  const std::size_t want0 = oracle::count_detected(nl, tests, f0);
  const std::size_t want1 = oracle::count_detected(nl, tests, f1);
  if (cov.p0_detected != want0 || cov.p1_detected != want1) {
    return "coverage: union coverage P0 " + std::to_string(cov.p0_detected) +
           "/P1 " + std::to_string(cov.p1_detected) + " vs oracle " +
           std::to_string(want0) + "/" + std::to_string(want1);
  }
  if (cov.p0_total != ts.p0.size() || cov.p1_total != ts.p1.size()) {
    return "coverage: totals do not match the target sets";
  }

  // Metamorphic: adding a test never lowers the union coverage.
  std::size_t prev = 0;
  for (std::size_t k = 0; k <= tests.size(); ++k) {
    const UnionCoverage c = store::cached_union_coverage(
        nullptr, nl, std::span<const TwoPatternTest>(tests).first(k), ts.p0,
        ts.p1, tcfg);
    const std::size_t detected = c.p0_detected + c.p1_detected;
    if (detected < prev) {
      return "coverage: adding test " + std::to_string(k) +
             " lowered union coverage from " + std::to_string(prev) + " to " +
             std::to_string(detected);
    }
    prev = detected;
  }
  return std::nullopt;
}

// ---- metamorphic: pruning yields a prefix of the fault-length sequence -----

std::optional<std::string> check_prune_prefix(const Netlist& nl,
                                              std::uint64_t seed) {
  (void)seed;
  const auto ref = ref_paths(nl);
  if (!ref || ref->size() < 4) return std::nullopt;

  const LineDelayModel dm(nl);
  EnumerationConfig cfg;
  cfg.max_faults = 2 * ref->size() + 16;
  const EnumerationResult full = enumerate_longest_paths(dm, cfg);

  EnumerationConfig pruned_cfg;
  pruned_cfg.max_faults = std::max<std::size_t>(4, ref->size());
  const EnumerationResult pruned = enumerate_longest_paths(dm, pruned_cfg);
  if (pruned.paths.size() > full.paths.size()) {
    return "prune: bounded enumeration returned more paths than the full run";
  }
  // Fault lengths (two faults per path) of the pruned run must be the leading
  // entries of the full run's descending sequence.
  for (std::size_t i = 0; i < pruned.paths.size(); ++i) {
    if (pruned.paths[i].length != full.paths[i].length) {
      return "prune: pruned fault-length sequence diverges at path " +
             std::to_string(i) + ": " + std::to_string(pruned.paths[i].length) +
             " vs " + std::to_string(full.paths[i].length);
    }
  }
  return std::nullopt;
}

// ---- execution-condition determinism ---------------------------------------

struct GenerationOutputs {
  std::vector<TwoPatternTest> tests;
  std::vector<std::vector<bool>> detected;
  std::vector<std::size_t> primary_targets;
};

GenerationOutputs outputs_of(const GenerationResult& r) {
  return GenerationOutputs{r.tests, r.detected, r.primary_targets};
}

std::optional<std::string> diff_outputs(const GenerationOutputs& a,
                                        const GenerationOutputs& b,
                                        const std::string& what) {
  if (a.tests.size() != b.tests.size()) {
    return what + ": test counts differ (" + std::to_string(a.tests.size()) +
           " vs " + std::to_string(b.tests.size()) + ")";
  }
  for (std::size_t i = 0; i < a.tests.size(); ++i) {
    if (a.tests[i].pi_values != b.tests[i].pi_values) {
      return what + ": test " + std::to_string(i) + " differs (" +
             describe_test(a.tests[i]) + " vs " + describe_test(b.tests[i]) + ")";
    }
  }
  if (a.detected != b.detected) return what + ": detection flags differ";
  if (a.primary_targets != b.primary_targets) {
    return what + ": primary target attribution differs";
  }
  return std::nullopt;
}

std::optional<std::string> check_threads(const Netlist& nl, std::uint64_t seed) {
  TargetSetConfig tcfg;
  tcfg.n_p = 60;
  tcfg.n_p0 = 10;
  const TargetSets ts = build_target_sets(nl, tcfg);
  GeneratorConfig gcfg;
  gcfg.seed = mix(seed, 0x7d);
  const auto tests = random_tests(nl, mix(seed, 0x7e), 8);

  const auto run_all = [&] {
    GenerationOutputs out = outputs_of(generate_tests(nl, ts.p0, ts.p1, gcfg));
    const BatchSimulator psim(nl);
    const std::vector<bool> d = psim.detects_any(tests, ts.p0);
    out.detected.push_back(d);
    return out;
  };

  runtime::set_global_threads(1);
  const GenerationOutputs serial = run_all();
  runtime::set_global_threads(g_base_threads > 1 ? g_base_threads : 4);
  const GenerationOutputs parallel = run_all();
  runtime::set_global_threads(g_base_threads);
  return diff_outputs(serial, parallel, "threads: --threads 1 vs N");
}

std::optional<std::string> check_store(const Netlist& nl, std::uint64_t seed) {
  TargetSetConfig tcfg;
  tcfg.n_p = 60;
  tcfg.n_p0 = 10;
  const TargetSets ts = build_target_sets(nl, tcfg);
  GeneratorConfig gcfg;
  gcfg.seed = mix(seed, 0x3a);

  namespace fs = std::filesystem;
  char dirname[64];
  std::snprintf(dirname, sizeof dirname, "pdf_check_store_%016llx",
                static_cast<unsigned long long>(mix(seed, 0x3b)));
  const fs::path dir = fs::temp_directory_path() / dirname;
  fs::remove_all(dir);

  std::optional<std::string> failure;
  {
    store::StageCache cache(dir);
    const GenerationResult cold =
        store::cached_generate(&cache, nl, ts.p0, ts.p1, tcfg, gcfg);
    const GenerationResult warm =
        store::cached_generate(&cache, nl, ts.p0, ts.p1, tcfg, gcfg);
    const GenerationResult plain = generate_tests(nl, ts.p0, ts.p1, gcfg);
    failure = diff_outputs(outputs_of(cold), outputs_of(plain),
                           "store: cold cache vs uncached");
    if (!failure) {
      failure = diff_outputs(outputs_of(warm), outputs_of(cold),
                             "store: warm cache vs cold");
    }

    if (!failure) {
      // Serde round-trip of the result record (the same codec the cache used).
      store::ByteWriter w;
      store::encode(w, cold);
      store::ByteReader r(w.view());
      const GenerationResult back = store::decode_generation_result(r);
      failure = diff_outputs(outputs_of(back), outputs_of(cold),
                             "store: serde round-trip");
    }
  }
  fs::remove_all(dir);
  return failure;
}

constexpr Check kChecks[] = {
    {"sim_vs_oracle", 1, check_sim},
    {"paths_vs_oracle", 1, check_paths},
    {"requirements_vs_oracle", 1, check_requirements},
    {"selection_agrees", 1, check_selection},
    {"justify_agrees", 1, check_justify},
    {"bnb_agrees", 1, check_bnb},
    {"implication_agrees", 1, check_implication},
    {"screen_agrees", 1, check_screen},
    {"faultsim_vs_oracle", 1, check_faultsim},
    {"backends_agree", 2, check_backends},
    {"atpg_primary_targets", 2, check_atpg},
    {"coverage_accounting", 2, check_coverage},
    {"prune_prefix", 2, check_prune_prefix},
    {"threads_determinism", 25, check_threads},
    {"store_cold_warm", 50, check_store},
};

}  // namespace

std::span<const Check> all_checks() { return kChecks; }

void set_base_threads(std::size_t threads) { g_base_threads = threads; }

const Check* find_check(const std::string& name) {
  for (const Check& c : kChecks) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace pdf::check
