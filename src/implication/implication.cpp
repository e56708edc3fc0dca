#include "implication/implication.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "sim/packed_eval.hpp"

namespace pdf {

ImplicationEngine::ImplicationEngine(const Netlist& nl) {
  if (!nl.finalized()) throw std::logic_error("ImplicationEngine: not finalized");
  owned_.emplace(nl);
  init(*owned_);
}

ImplicationEngine::ImplicationEngine(const CompiledCircuit& cc) { init(cc); }

void ImplicationEngine::init(const CompiledCircuit& cc) {
  cc_ = &cc;
  if (cc.has_sequential()) {
    throw std::logic_error("ImplicationEngine: netlist is sequential");
  }
  for (auto& plane : value_) plane.assign(cc.node_count(), V3::X);
  work_.reserve(3 * cc.node_count());
}

void ImplicationEngine::clear() {
  mark_ = 0;
  undo();
}

void ImplicationEngine::undo() {
  std::size_t end = work_.size();
#ifdef PATHDELAY_MUTATION_STALE_TRAIL
  // Seeded bug (mutation testing only): undo leaves the newest trail entry
  // assigned, so a rejected extension leaks one value into the closure the
  // next extension starts from — implication_agrees must catch it.
  if (end > mark_) --end;
#endif
  for (std::size_t i = mark_; i < end; ++i) {
    const auto [id, plane] = work_[i];
    value_[plane][id] = V3::X;
  }
  work_.resize(mark_);
  head_ = mark_;
  conflict_ = false;
}

void ImplicationEngine::assign(NodeId id, int plane, V3 v) {
  if (conflict_ || !is_specified(v)) return;
  V3& cur = value_[plane][id];
  if (cur == v) return;
  if (is_specified(cur)) {
    conflict_ = true;
    return;
  }
  cur = v;
  work_.emplace_back(id, plane);
}

// Forward evaluation of `gate` in `plane`; assigns the output if determined.
void ImplicationEngine::forward(NodeId gate, int plane) {
  if (cc_->type(gate) == GateType::Input) return;
  const V3 v = eval_node_plane(*cc_, gate, value_[plane].data());
  if (is_specified(v)) assign(gate, plane, v);
}

// Backward inference for `gate` in `plane` from its (possibly specified)
// output value.
void ImplicationEngine::backward(NodeId gate, int plane) {
  const GateType t = cc_->type(gate);
  if (t == GateType::Input) return;
  const V3 out = value_[plane][gate];
  if (!is_specified(out)) return;
  const std::span<const NodeId> fanin = cc_->fanins(gate);

  switch (t) {
    case GateType::Buf:
      assign(fanin[0], plane, out);
      return;
    case GateType::Not:
      assign(fanin[0], plane, not3(out));
      return;
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor: {
      const V3 c = *controlling_value(t);
      const V3 nc = not3(c);
      // Output seen through the gate's inversion: the value the underlying
      // AND/OR core produces.
      const V3 core = is_inverting(t) ? not3(out) : out;
      if (core == nc) {
        // Non-controlled output: every input must be non-controlling.
        for (NodeId f : fanin) assign(f, plane, nc);
      } else {
        // Controlled output: if all inputs but one are non-controlling, the
        // remaining input must be controlling.
        NodeId unknown = kNoNode;
        int unknown_count = 0;
        for (NodeId f : fanin) {
          const V3 v = value_[plane][f];
          if (v == c) return;  // already justified
          if (!is_specified(v)) {
            unknown = f;
            ++unknown_count;
            if (unknown_count > 1) return;
          }
        }
        if (unknown_count == 1) {
          assign(unknown, plane, c);
        } else if (unknown_count == 0) {
          // All inputs non-controlling but output controlled: contradiction.
          conflict_ = true;
        }
      }
      return;
    }
    default:
      throw std::logic_error("implication on non-primitive gate " +
                             cc_->netlist().node(gate).name);
  }
}

bool ImplicationEngine::extend(std::span<const ValueRequirement> reqs) {
  const CompiledCircuit& cc = *cc_;
  for (const auto& r : reqs) {
    assign(r.line, 0, r.value.a1);
    assign(r.line, 1, r.value.a2);
    assign(r.line, 2, r.value.a3);
    if (conflict_) return false;
  }

  while (head_ < work_.size() && !conflict_) {
    const auto [id, plane] = work_[head_++];

    // PI plane coupling.
    if (cc.input_index(id) >= 0) {
      const V3 b1 = value_[0][id], b2 = value_[1][id], b3 = value_[2][id];
      if (is_specified(b1) && b1 == b3) assign(id, 1, b1);
      if (is_specified(b2)) {
        assign(id, 0, b2);
        assign(id, 2, b2);
      }
    }

    // The node's own gate: re-evaluate forward (consistency with fanins) and
    // infer backwards into fanins.
    forward(id, plane);
    backward(id, plane);

    // Every consumer: the changed input may determine the output (forward) or
    // enable sibling inference (backward).
    for (NodeId g : cc.fanouts(id)) {
      forward(g, plane);
      backward(g, plane);
      if (conflict_) break;
    }
  }
  return !conflict_;
}

const ImplicationResult& ImplicationEngine::imply(
    std::span<const ValueRequirement> reqs) {
  clear();
  result_.consistent = extend(reqs);
  result_.values.clear();
  if (result_.consistent) {
    const std::size_t n = cc_->node_count();
    result_.values.resize(n);
    for (NodeId id = 0; id < n; ++id) {
      result_.values[id] = Triple{value_[0][id], value_[1][id], value_[2][id]};
    }
  }
  return result_;
}


// ---- lane-parallel closure -------------------------------------------------

namespace {

/// 256 lanes: four uint64_t subwords, lane L is bit L % 64 of subword L / 64.
/// This TU is compiled baseline. Screening the eight table circuits at
/// N_P=4000 took 0.092 s with 64 lanes, 0.062 s with 256 and 0.060 s with
/// 512, and 512 lanes were slower at N_P=10000 (4-core AVX-512 host).
using LaneWord = std::uint64_t __attribute__((vector_size(32)));
using LanePlane = sim::PlaneVec<LaneWord>;
constexpr std::size_t kSubwords = sizeof(LaneWord) / sizeof(std::uint64_t);
static_assert(LaneImplication::kLanes == 64 * kSubwords);

bool any(const LaneWord& w) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < kSubwords; ++i) acc |= w[i];
  return acc != 0;
}

/// Merges a derived (value, known) pair into `cur`: lanes x so far take the
/// derived value, lanes holding the opposite value join `conflict`. `value`
/// must be clear where `known` is clear.
void merge(LanePlane& cur, const LaneWord& value, const LaneWord& known,
           LaneWord& conflict, LaneWord& changed) {
  conflict |= known & cur.known & (value ^ cur.value);
  const LaneWord fresh = known & ~cur.known;
  cur.value |= value & fresh;
  cur.known |= fresh;
  changed |= fresh;
}

}  // namespace

struct LaneImplication::State {
  std::vector<LanePlane> plane[3];  // per plane, per node
  LaneWord conflict{};
};

LaneImplication::LaneImplication(const CompiledCircuit& cc)
    : cc_(&cc), state_(std::make_unique<State>()) {
  if (cc.has_sequential()) {
    throw std::logic_error("LaneImplication: netlist is sequential");
  }
  for (auto& plane : state_->plane) plane.resize(cc.node_count());
}

LaneImplication::~LaneImplication() = default;

void LaneImplication::clear() {
  for (auto& plane : state_->plane) {
    std::fill(plane.begin(), plane.end(), LanePlane{});
  }
  state_->conflict = LaneWord{};
  lanes_ = 0;
}

void LaneImplication::add(std::span<const ValueRequirement> reqs) {
  if (full()) {
    throw std::logic_error("LaneImplication::add: every lane is seeded");
  }
  const std::size_t word = lanes_ / 64;
  const std::uint64_t bit = std::uint64_t{1} << (lanes_ % 64);
  State& st = *state_;
  for (const auto& r : reqs) {
    const V3 comp[3] = {r.value.a1, r.value.a2, r.value.a3};
    for (int q = 0; q < 3; ++q) {
      if (!is_specified(comp[q])) continue;
      LanePlane& cur = st.plane[q][r.line];
      const std::uint64_t one = comp[q] == V3::One ? bit : 0;
      if ((cur.known[word] & bit) != 0) {
        if ((cur.value[word] & bit) != one) st.conflict[word] |= bit;
      } else {
        cur.known[word] |= bit;
        cur.value[word] |= one;
      }
    }
  }
  ++lanes_;
}

bool LaneImplication::contradicts(std::size_t lane) const {
  return ((state_->conflict[lane / 64] >> (lane % 64)) & 1) != 0;
}

std::size_t LaneImplication::close() {
  const CompiledCircuit& cc = *cc_;
  State& st = *state_;
  LaneWord& conflict = st.conflict;
  LaneWord changed{};
  LaneWord seeded{};
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    seeded[lane / 64] |= std::uint64_t{1} << (lane % 64);
  }
  const std::span<const NodeId> topo = cc.topo_order();
  LanePlane* const p[3] = {st.plane[0].data(), st.plane[1].data(),
                           st.plane[2].data()};

  std::size_t sweeps = 0;
  do {
    ++sweeps;
    // Forward: PI coupling, then every gate's evaluation merged into its
    // current words. Topological order closes the whole forward rule set in
    // one sweep.
    for (const NodeId id : topo) {
      if (cc.type(id) == GateType::Input) {
        // A specified intermediate value forces both pattern values; equal
        // pattern values force the intermediate one.
        const LanePlane b2 = p[1][id];
        merge(p[0][id], b2.value, b2.known, conflict, changed);
        merge(p[2][id], b2.value, b2.known, conflict, changed);
        const LanePlane& b1 = p[0][id];
        const LanePlane& b3 = p[2][id];
        const LaneWord same = b1.known & b3.known & ~(b1.value ^ b3.value);
        merge(p[1][id], b1.value & same, same, conflict, changed);
        continue;
      }
      for (int q = 0; q < 3; ++q) {
        const LanePlane old = p[q][id];
        sim::eval_packed_gate(cc, id, p[q]);
        const LanePlane derived = p[q][id];
        p[q][id] = old;
        merge(p[q][id], derived.value, derived.known, conflict, changed);
      }
    }

    // Backward: reverse order, so a gate's output is final for this sweep
    // before its fanins are inferred from it.
    changed = LaneWord{};
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const NodeId id = *it;
      const GateType t = cc.type(id);
      if (t == GateType::Input) continue;
      const std::span<const NodeId> fanin = cc.fanins(id);
      for (int q = 0; q < 3; ++q) {
        LanePlane* const plane = p[q];
        const LanePlane out = plane[id];
        if (!any(out.known)) continue;
        switch (t) {
          case GateType::Buf:
            merge(plane[fanin[0]], out.value, out.known, conflict, changed);
            break;
          case GateType::Not:
            merge(plane[fanin[0]], ~out.value & out.known, out.known, conflict,
                  changed);
            break;
          case GateType::And:
          case GateType::Nand:
          case GateType::Or:
          case GateType::Nor: {
            const bool c_one = t == GateType::Or || t == GateType::Nor;
            const bool inverting = t == GateType::Nand || t == GateType::Nor;
            // Lanes where the underlying AND/OR core outputs 1 / 0.
            const LaneWord one = out.value & out.known;
            const LaneWord zero = ~out.value & out.known;
            const LaneWord core_one = inverting ? zero : one;
            const LaneWord core_zero = inverting ? one : zero;
            const LaneWord non_controlled = c_one ? core_zero : core_one;
            const LaneWord controlled = c_one ? core_one : core_zero;
            // A lane is non-controlling where (value ^ flip) & known.
            const LaneWord flip = c_one ? ~LaneWord{} : LaneWord{};
            // Non-controlled output: every input non-controlling.
            if (any(non_controlled)) {
              const LaneWord nc_value = c_one ? LaneWord{} : non_controlled;
              for (const NodeId f : fanin) {
                merge(plane[f], nc_value, non_controlled, conflict, changed);
              }
            }
            // Controlled output: an input whose siblings are all
            // non-controlling must be controlling (prefix and suffix ANDs
            // over the siblings; a non-controlling last input conflicts).
            if (any(controlled)) {
              const std::size_t n = fanin.size();
              LaneWord suffix[kMaxGateFanin + 1];
              suffix[n] = ~LaneWord{};
              for (std::size_t i = n; i-- > 0;) {
                const LanePlane& v = plane[fanin[i]];
                suffix[i] = suffix[i + 1] & (v.value ^ flip) & v.known;
              }
              LaneWord prefix = controlled;
              for (std::size_t i = 0; i < n; ++i) {
                const LanePlane& v = plane[fanin[i]];
                const LaneWord nc_i = (v.value ^ flip) & v.known;
#ifdef PATHDELAY_MUTATION_LANE_BACKWARD_CONTROLLED
                // Seeded bug (mutation testing only): the controlled-output
                // rule is skipped, so a contradiction only it derives is
                // missed and the fault survives screening.
                (void)prefix;
#else
                const LaneWord forced = prefix & suffix[i + 1];
                merge(plane[fanin[i]], c_one ? forced : LaneWord{}, forced,
                      conflict, changed);
#endif
                prefix &= nc_i;
              }
            }
            break;
          }
          default:
            throw std::logic_error("implication on non-primitive gate " +
                                   cc.netlist().node(id).name);
        }
      }
    }
  } while (any(changed) && any(seeded & ~conflict));
  return sweeps;
}

}  // namespace pdf
