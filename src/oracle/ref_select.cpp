// Secondary-target selection from the definition (paper Section 2.2): the
// union is a std::map rebuilt by value, n_Delta is recounted for every
// eligible fault on every pick, and the cover and conflict relations are
// written out plane by plane instead of using the triple-algebra helpers.
#include <map>

#include "oracle/oracle.hpp"

namespace pdf::oracle {
namespace {

/// One plane of the cover relation: an unknown requirement asks nothing; a
/// specified requirement is guaranteed only by the identical specified value.
bool plane_covers(V3 have, V3 want) { return want == V3::X || have == want; }

bool plane_conflicts(V3 have, V3 want) {
  return have != V3::X && want != V3::X && have != want;
}

/// The triple `have` assigns to `line` (all unknown when it says nothing).
Triple value_on(std::span<const ValueRequirement> have, NodeId line) {
  for (const auto& entry : have) {
    if (entry.line == line) return entry.value;
  }
  return Triple{};
}

}  // namespace

std::size_t delta_count(std::span<const ValueRequirement> have,
                        std::span<const ValueRequirement> want) {
  std::size_t n = 0;
  for (const auto& w : want) {
    const Triple h = value_on(have, w.line);
    const bool guaranteed = plane_covers(h.a1, w.value.a1) &&
                            plane_covers(h.a2, w.value.a2) &&
                            plane_covers(h.a3, w.value.a3);
    if (!guaranteed) ++n;
  }
  return n;
}

bool conflicts(std::span<const ValueRequirement> have,
               std::span<const ValueRequirement> want) {
  for (const auto& w : want) {
    const Triple h = value_on(have, w.line);
    if (plane_conflicts(h.a1, w.value.a1) || plane_conflicts(h.a2, w.value.a2) ||
        plane_conflicts(h.a3, w.value.a3)) {
      return true;
    }
  }
  return false;
}

std::vector<ValueRequirement> merge(std::span<const ValueRequirement> have,
                                    std::span<const ValueRequirement> want) {
  std::map<NodeId, Triple> lines;
  for (const auto& h : have) lines[h.line] = h.value;
  for (const auto& w : want) {
    Triple& t = lines[w.line];  // a new line starts all unknown
    if (t.a1 == V3::X) t.a1 = w.value.a1;
    if (t.a2 == V3::X) t.a2 = w.value.a2;
    if (t.a3 == V3::X) t.a3 = w.value.a3;
  }
  std::vector<ValueRequirement> out;
  for (const auto& [line, value] : lines) out.push_back({line, value});
  return out;
}

std::size_t pick_secondary(std::span<const ValueRequirement> have,
                           std::span<const TargetFault> faults,
                           std::span<const std::size_t> order,
                           const std::vector<bool>& eligible) {
  std::size_t best = static_cast<std::size_t>(-1);
  std::size_t best_delta = 0;
  for (const std::size_t i : order) {
    if (!eligible[i]) continue;
    const std::size_t d = delta_count(have, faults[i].requirements);
    if (best == static_cast<std::size_t>(-1) || d < best_delta) {
      best = i;
      best_delta = d;
    }
  }
  return best;
}

}  // namespace pdf::oracle
