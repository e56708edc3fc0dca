// Simulation-based justification written straight from paper Section 2.1:
// every probe is one full definitional simulation of the circuit, a
// conflict is a required component that the simulated line holds at the
// opposite value, and the final test is accepted only when its simulation
// satisfies every requirement. It makes the production justifier's choices
// in the same order — probe support bits by ascending input, first pattern
// before second; decide on a half-specified input first, otherwise a random
// free support bit; fill the bits outside the support last — so with the
// same seeded Rng the two must agree on every bit and every count.
//
// The branch-and-bound search is written the same way: a copied assignment
// per search node, the same fixpoint (two probes per scanned bit, each forced
// bit applied at once), the same decision rule and the same backtrack budget
// as `JustificationEngine::branch_and_bound`.
#include <map>
#include <set>

#include "oracle/oracle.hpp"

namespace pdf::oracle {
namespace {

/// One entry per required line, components merged (a specified value fills
/// an unknown one). The input is conflict-free by precondition.
std::map<NodeId, Triple> merged_requirements(
    std::span<const ValueRequirement> reqs) {
  std::map<NodeId, Triple> out;
  for (const auto& r : reqs) {
    Triple& t = out[r.line];
    if (r.value.a1 != V3::X) t.a1 = r.value.a1;
    if (r.value.a2 != V3::X) t.a2 = r.value.a2;
    if (r.value.a3 != V3::X) t.a3 = r.value.a3;
  }
  return out;
}

bool plane_conflicts(V3 have, V3 want) {
  return have != V3::X && want != V3::X && have != want;
}

/// True when two requirements want opposite values on one plane of a line.
bool self_conflicting(std::span<const ValueRequirement> reqs) {
  const std::map<NodeId, Triple> merged = merged_requirements(reqs);
  for (const auto& r : reqs) {
    const Triple& t = merged.at(r.line);
    if (plane_conflicts(t.a1, r.value.a1) || plane_conflicts(t.a2, r.value.a2) ||
        plane_conflicts(t.a3, r.value.a3)) {
      return true;
    }
  }
  return false;
}

/// Input indices in the transitive fanin of the required lines, ascending.
std::vector<std::size_t> support_of(const Netlist& nl,
                                    const std::map<NodeId, Triple>& required) {
  std::map<NodeId, std::size_t> input_index;
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    input_index[nl.inputs()[i]] = i;
  }
  std::set<NodeId> seen;
  std::set<std::size_t> support;
  std::vector<NodeId> todo;
  for (const auto& [line, want] : required) todo.push_back(line);
  while (!todo.empty()) {
    const NodeId id = todo.back();
    todo.pop_back();
    if (!seen.insert(id).second) continue;
    if (const auto it = input_index.find(id); it != input_index.end()) {
      support.insert(it->second);
    }
    for (NodeId f : nl.node(id).fanin) todo.push_back(f);
  }
  return {support.begin(), support.end()};
}

/// The greedy search state of one attempt: the two pattern bits of every PI.
struct Assignment {
  std::vector<V3> first, second;

  V3& bit(std::size_t input, int plane) {
    return plane == 0 ? first[input] : second[input];
  }

  /// PI triples: the intermediate value is the stable value of an input
  /// whose two patterns agree, unknown otherwise.
  std::vector<Triple> pi_values() const {
    std::vector<Triple> out(first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      const V3 mid =
          first[i] != V3::X && first[i] == second[i] ? first[i] : V3::X;
      out[i] = Triple{first[i], mid, second[i]};
    }
    return out;
  }
};

/// True when simulating `a` puts some required line at the value opposite
/// to a specified required component.
bool conflicts(const Netlist& nl, const std::map<NodeId, Triple>& required,
               const Assignment& a) {
  const std::vector<Triple> values = simulate(nl, a.pi_values());
  for (const auto& [line, want] : required) {
    const Triple& have = values[line];
    if (plane_conflicts(have.a1, want.a1) ||
        plane_conflicts(have.a2, want.a2) ||
        plane_conflicts(have.a3, want.a3)) {
      return true;
    }
  }
  return false;
}

/// True when simulating `a` gives every required line every specified
/// required component.
bool satisfies(const Netlist& nl, const std::map<NodeId, Triple>& required,
               const Assignment& a) {
  const std::vector<Triple> values = simulate(nl, a.pi_values());
  for (const auto& [line, want] : required) {
    const Triple& have = values[line];
    if ((want.a1 != V3::X && have.a1 != want.a1) ||
        (want.a2 != V3::X && have.a2 != want.a2) ||
        (want.a3 != V3::X && have.a3 != want.a3)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<TwoPatternTest> justify(const Netlist& nl,
                                      std::span<const ValueRequirement> reqs,
                                      Rng& rng, JustifyStats& stats,
                                      int max_attempts,
                                      std::vector<JustifyEvent>* trace) {
  const std::map<NodeId, Triple> required = merged_requirements(reqs);
  const std::vector<std::size_t> support = support_of(nl, required);
  const std::size_t n = nl.inputs().size();

  const int attempts = max_attempts < 1 ? 1 : max_attempts;
  for (int k = 0; k < attempts; ++k) {
    ++stats.attempts;
    Assignment a{std::vector<V3>(n, V3::X), std::vector<V3>(n, V3::X)};
    std::uint64_t pass = 0;
    const auto assign = [&](JustifyEvent::Kind kind, std::size_t input,
                            int plane, V3 v) {
      a.bit(input, plane) = v;
      if (trace) trace->push_back({kind, k, pass, input, plane, v});
    };

    bool failed = conflicts(nl, required, a);
    while (!failed) {
      // Necessary values: probe every unspecified support bit with 0 and
      // with 1 until a whole pass forces nothing.
      bool progress = true;
      while (progress && !failed) {
        progress = false;
        ++stats.passes;
        ++pass;
        for (std::size_t input : support) {
          for (int plane : {0, 2}) {
            if (failed || a.bit(input, plane) != V3::X) continue;
            bool conflict[2];
            for (const V3 v : {V3::Zero, V3::One}) {
              ++stats.probes;
              Assignment probe = a;
              probe.bit(input, plane) = v;
              conflict[v == V3::One] = conflicts(nl, required, probe);
            }
            if (conflict[0] && conflict[1]) {
              failed = true;
            } else if (conflict[0] != conflict[1]) {
              assign(JustifyEvent::Kind::Forced, input, plane,
                     conflict[0] ? V3::One : V3::Zero);
              failed = conflicts(nl, required, a);
              progress = true;
            }
          }
        }
      }
      if (failed) break;

      // Decision: copy the value of the first half-specified input to its
      // other pattern (making it steady), otherwise a random value on a
      // random free support bit.
      std::vector<std::pair<std::size_t, int>> free_bits;
      std::size_t half = n;
      for (std::size_t input : support) {
        const bool s1 = a.first[input] != V3::X;
        const bool s3 = a.second[input] != V3::X;
        if (s1 != s3 && half == n) half = input;
        if (!s1) free_bits.emplace_back(input, 0);
        if (!s3) free_bits.emplace_back(input, 2);
      }
      if (free_bits.empty()) break;
      ++stats.decisions;
      if (half != n) {
        const bool have1 = a.first[half] != V3::X;
        assign(JustifyEvent::Kind::Decision, half, have1 ? 2 : 0,
               have1 ? a.first[half] : a.second[half]);
      } else {
        const auto [input, plane] = free_bits[rng.below(free_bits.size())];
        assign(JustifyEvent::Kind::Decision, input, plane,
               rng.coin() ? V3::One : V3::Zero);
      }
      failed = conflicts(nl, required, a);
    }
    if (failed) continue;

    // Bits outside the support: random values.
    for (std::size_t i = 0; i < n; ++i) {
      for (int plane : {0, 2}) {
        if (a.bit(i, plane) == V3::X) {
          assign(JustifyEvent::Kind::Fill, i, plane,
                 rng.coin() ? V3::One : V3::Zero);
        }
      }
    }
    if (satisfies(nl, required, a)) {
      ++stats.successes;
      TwoPatternTest t;
      t.pi_values = a.pi_values();
      return t;
    }
  }
  ++stats.failures;
  return std::nullopt;
}

namespace {

/// The branch-and-bound search over one requirement set.
struct BnbSearch {
  enum class Outcome { Sat, Unsat, Abort };

  const Netlist& nl;
  const std::map<NodeId, Triple>& required;
  const std::vector<std::size_t>& support;
  std::size_t budget;
  BnbStats& stats;
  BnbResult& out;

  /// Necessary values to a fixpoint: probe every unspecified support bit
  /// with 0 and with 1 until a whole pass forces nothing. False when both
  /// values of a bit conflict or a forced bit does.
  bool forced_values(Assignment& a) {
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t input : support) {
        for (int plane : {0, 2}) {
          if (a.bit(input, plane) != V3::X) continue;
          bool conflict[2];
          for (const V3 v : {V3::Zero, V3::One}) {
            ++stats.probes;
            Assignment probe = a;
            probe.bit(input, plane) = v;
            conflict[v == V3::One] = conflicts(nl, required, probe);
          }
          if (conflict[0] && conflict[1]) return false;
          if (conflict[0] != conflict[1]) {
            a.bit(input, plane) = conflict[0] ? V3::One : V3::Zero;
            if (conflicts(nl, required, a)) return false;
            progress = true;
          }
        }
      }
    }
    return true;
  }

  /// Searches below `a`; on Sat, `a` holds the satisfying assignment.
  Outcome solve(Assignment& a) {
    if (!forced_values(a)) return Outcome::Unsat;

    // Decision: the first half-specified input gets its other pattern's
    // value first; otherwise the first free first-pattern bit gets 0 first.
    std::size_t input = a.first.size();
    int plane = 0;
    V3 first_value = V3::Zero;
    for (std::size_t i : support) {
      const bool s1 = a.first[i] != V3::X;
      const bool s3 = a.second[i] != V3::X;
      if (s1 != s3) {
        input = i;
        plane = s1 ? 2 : 0;
        first_value = s1 ? a.first[i] : a.second[i];
        break;
      }
      if (!s1 && input == a.first.size()) input = i;
    }
    if (input == a.first.size()) {
      return satisfies(nl, required, a) ? Outcome::Sat : Outcome::Unsat;
    }

    ++out.decisions;
    ++stats.decisions;
    for (const V3 v : {first_value, not3(first_value)}) {
      Assignment child = a;
      child.bit(input, plane) = v;
      if (!conflicts(nl, required, child)) {
        const Outcome sub = solve(child);
        if (sub == Outcome::Sat) a = std::move(child);
        if (sub != Outcome::Unsat) return sub;
      }
      ++out.backtracks;
      ++stats.backtracks;
      if (out.backtracks > budget) return Outcome::Abort;
    }
    return Outcome::Unsat;
  }
};

}  // namespace

BnbResult branch_and_bound(const Netlist& nl,
                           std::span<const ValueRequirement> reqs,
                           std::size_t max_backtracks, BnbStats& stats) {
  ++stats.calls;
  BnbResult out;
  out.status = BnbStatus::Unsatisfiable;
  if (!self_conflicting(reqs)) {
    const std::map<NodeId, Triple> required = merged_requirements(reqs);
    const std::vector<std::size_t> support = support_of(nl, required);
    const std::size_t n = nl.inputs().size();
    Assignment a{std::vector<V3>(n, V3::X), std::vector<V3>(n, V3::X)};
    if (!conflicts(nl, required, a)) {
      BnbSearch search{nl, required, support, max_backtracks, stats, out};
      switch (search.solve(a)) {
        case BnbSearch::Outcome::Sat: {
          out.status = BnbStatus::Satisfiable;
          // Bits outside the support: steady 0.
          for (std::size_t i = 0; i < n; ++i) {
            for (int plane : {0, 2}) {
              if (a.bit(i, plane) == V3::X) a.bit(i, plane) = V3::Zero;
            }
          }
          out.test.pi_values = a.pi_values();
          break;
        }
        case BnbSearch::Outcome::Unsat: break;
        case BnbSearch::Outcome::Abort: out.status = BnbStatus::Aborted; break;
      }
    }
  }
  switch (out.status) {
    case BnbStatus::Satisfiable: ++stats.sat; break;
    case BnbStatus::Unsatisfiable: ++stats.unsat; break;
    case BnbStatus::Aborted: ++stats.aborted; break;
  }
  return out;
}

}  // namespace pdf::oracle
