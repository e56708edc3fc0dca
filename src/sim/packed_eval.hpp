// The packed three-valued gate algebra: one gate evaluated across many
// independent lanes at once, each plane as a (value, known) pair of words.
//
// `Vec` is plain std::uint64_t (64 lanes) or a GCC vector-extension type of
// several uint64_t subwords (256 or 512 lanes). The bitwise rules are the
// lane-parallel form of `eval_node_triple`: planes are independent, a lane's
// value bit is meaningful only where its known bit is set, and a value bit is
// never set where known is clear. Consumers: the bitpar/avx2/avx512 backends
// (`sim/backend_wide.hpp`, one test per lane) and the greedy justifier's
// persistent probe lanes (`atpg/justify.cpp`, one probe per lane).
//
// Everything here has internal linkage (anonymous namespace) for the reason
// spelled out in backend_wide.hpp: the including TUs are compiled with
// different ISA flags, and a shared inline copy could hand AVX code to a
// baseline TU. Every includer gets its own copy built with its own flags.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/compiled_circuit.hpp"

namespace pdf::sim {
namespace {

/// One 3-valued signal across the lanes of `Vec`: a bit of `value` is
/// meaningful (and may be 1) only where the matching `known` bit is set.
template <typename Vec>
struct PlaneVec {
  Vec value{};
  Vec known{};
};

/// Evaluates gate `id` on one plane: `plane[node]` holds every node's word
/// pair, and the gate reads its fanins from the same array. The planes of a
/// two-pattern value are independent, so a caller evaluates each plane it
/// needs. `Plane` is PlaneVec<Vec> or any struct with the same two
/// `value`/`known` word members. `id` must not be an Input node; sequential
/// elements are rejected.
template <typename Plane>
void eval_packed_gate(const CompiledCircuit& cc, NodeId id, Plane* plane) {
  using Vec = decltype(Plane::value);
  const Vec kAll = ~Vec{};
  const GateType t = cc.type(id);
  const std::span<const NodeId> fanin = cc.fanins(id);
  Plane& out = plane[id];
  switch (t) {
    case GateType::Buf:
    case GateType::Not: {
      const Plane& a = plane[fanin[0]];
      out.known = a.known;
      out.value =
          t == GateType::Not ? (~a.value & a.known) : (a.value & a.known);
      break;
    }
    case GateType::And:
    case GateType::Nand: {
      Vec all_one = kAll;  // every fanin known-1
      Vec any_zero{};      // some fanin known-0
      for (NodeId f : fanin) {
        const Plane& a = plane[f];
        all_one &= a.value & a.known;
        any_zero |= ~a.value & a.known;
      }
      Vec one = all_one & ~any_zero;
      Vec zero = any_zero;
      if (t == GateType::Nand) std::swap(one, zero);
      out.known = one | zero;
      out.value = one;
      break;
    }
    case GateType::Or:
    case GateType::Nor: {
      Vec any_one{};
      Vec all_zero = kAll;
      for (NodeId f : fanin) {
        const Plane& a = plane[f];
        any_one |= a.value & a.known;
        all_zero &= ~a.value & a.known;
      }
      Vec one = any_one;
      Vec zero = all_zero & ~any_one;
      if (t == GateType::Nor) std::swap(one, zero);
      out.known = one | zero;
      out.value = one;
      break;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      // xor3 is x as soon as any input is x: known = AND over fanin known,
      // value = parity of the known values, masked to known.
      Vec known = kAll;
      Vec parity{};
      for (NodeId f : fanin) {
        const Plane& a = plane[f];
        known &= a.known;
        parity ^= a.value;
      }
      out.known = known;
      out.value = (t == GateType::Xnor ? ~parity : parity) & known;
      break;
    }
    default:
      throw std::logic_error("packed evaluation: unsupported gate " +
                             cc.netlist().node(id).name);
  }
}

}  // namespace
}  // namespace pdf::sim
