// Batch pre-pack and requirement planning (see prepared.hpp). Compiled
// baseline — the packed data is plain uint64 words every backend TU reads.
#include "sim/prepared.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "sim/triple_sim.hpp"

namespace pdf::sim {
namespace {

/// Predicate byte of one PI triple: bit 2q = plane q known, bit 2q+1 =
/// plane q value (q over the a1/a2/a3 planes of pi_triple(b1, b3)).
std::uint8_t pi_code(V3 b1, V3 b3) {
  const Triple tri = pi_triple(b1, b3);
  const V3 vals[3] = {tri.a1, tri.a2, tri.a3};
  std::uint8_t code = 0;
  for (int q = 0; q < 3; ++q) {
    if (!is_specified(vals[q])) continue;
#ifdef PATHDELAY_MUTATION_BITPLANE_PACKING
    // Seeded bug (mutation testing only): a known-1 on the intermediate
    // plane loses its `known` bit during packing, so steady-state
    // intermediate requirements silently stop matching in the packed
    // backends while ScalarBackend still detects — the exact class of
    // packing defect the cross-backend differential check exists to catch.
    if (q == 1 && vals[q] == V3::One) {
      code = static_cast<std::uint8_t>(code | (2u << (2 * q)));
      continue;
    }
#endif
    code = static_cast<std::uint8_t>(code | (1u << (2 * q)));
    if (vals[q] == V3::One) {
      code = static_cast<std::uint8_t>(code | (2u << (2 * q)));
    }
  }
  return code;
}

/// pi_code over all 9 (b1, b3) combinations, indexed [b1][b3].
struct PiCodeTable {
  std::uint8_t code[3][3];
  PiCodeTable() {
    const V3 vals[3] = {V3::Zero, V3::One, V3::X};
    for (int a = 0; a < 3; ++a) {
      for (int b = 0; b < 3; ++b) {
        code[static_cast<int>(vals[a])][static_cast<int>(vals[b])] =
            pi_code(vals[a], vals[b]);
      }
    }
  }
};

/// A requirement triple's atoms as (q*2 | polarity) nibbles, precomputed
/// for all 27 (a1, a2, a3) combinations — the plan builder's inner loop is
/// then a table walk instead of three is_specified branches per plane.
struct ReqCodeTable {
  struct Entry {
    std::uint8_t count = 0;
    std::uint8_t qp[3] = {0, 0, 0};  // q * 2 + (value == 1)
  };
  Entry entry[27];
  ReqCodeTable() {
    const V3 vals[3] = {V3::Zero, V3::One, V3::X};
    for (int a = 0; a < 3; ++a) {
      for (int b = 0; b < 3; ++b) {
        for (int c = 0; c < 3; ++c) {
          Entry& e = entry[(a * 3 + b) * 3 + c];
          const V3 planes[3] = {vals[a], vals[b], vals[c]};
          for (int q = 0; q < 3; ++q) {
            if (!is_specified(planes[q])) continue;
            e.qp[e.count++] = static_cast<std::uint8_t>(
                q * 2 + (planes[q] == V3::One ? 1 : 0));
          }
        }
      }
    }
  }
  static int key(const Triple& t) {
    return (static_cast<int>(t.a1) * 3 + static_cast<int>(t.a2)) * 3 +
           static_cast<int>(t.a3);
  }
};

/// Packs one input's 64 predicate bytes (byte k = lane k) into word `w` of
/// its six plane rows. Each predicate bit of the 64 bytes is gathered into
/// one word: bytes restricted to 0/1, * 0x0102040810204080 pulls byte k's
/// LSB to bit 56+k with no cross-term carries (all 64 partial products land
/// on distinct bit positions).
void pack_code_row(const std::uint8_t* codes, PackedTests& pt, std::size_t i,
                   std::size_t w) {
  constexpr std::uint64_t kLsb = 0x0101010101010101ull;
  constexpr std::uint64_t kGather = 0x0102040810204080ull;
  std::uint64_t chunk[8];
  std::memcpy(chunk, codes, 64);
  for (int q = 0; q < 3; ++q) {
    std::uint64_t known = 0;
    std::uint64_t value = 0;
    for (int j = 0; j < 8; ++j) {
      const std::uint64_t kb = (chunk[j] >> (2 * q)) & kLsb;
      const std::uint64_t vb = (chunk[j] >> (2 * q + 1)) & kLsb;
      known |= ((kb * kGather) >> 56) << (8 * j);
      value |= ((vb * kGather) >> 56) << (8 * j);
    }
    pt.row(i, q, 0)[w] = known;
    pt.row(i, q, 1)[w] = value;
  }
}

}  // namespace

void pack_tests(const CompiledCircuit& cc,
                std::span<const TwoPatternTest> tests,
                const char* backend_name, PackedTests& pt) {
  static const PiCodeTable kCodes;
  const std::size_t ni = cc.inputs().size();
  for (const TwoPatternTest& tp : tests) {
    if (tp.pi_values.size() != ni) {
      throw std::invalid_argument(std::string(backend_name) +
                                  " backend: bad test width");
    }
  }
  const std::size_t words64 = (tests.size() + 63) / 64;
  pt.words64 = words64;
  pt.inputs = ni;
  pt.bits.resize(ni * 6 * words64);  // every word is written below

  // Blocked transpose. Per 64-test word and block of kBlock inputs, the
  // predicate bytes go into an on-stack tile (row i = input i0+i, byte t =
  // test w*64+t; lanes past the batch end are code 0, i.e. unknown), and
  // each tile row is packed straight into its input's six plane rows. The
  // word's 64 tests' PI vectors stay cache-resident across its blocks.
  constexpr std::size_t kBlock = 64;
  alignas(64) std::uint8_t tile[kBlock][64];
  for (std::size_t w = 0; w < words64; ++w) {
    const std::size_t t0 = w * 64;
    const std::size_t nt = std::min<std::size_t>(64, tests.size() - t0);
    for (std::size_t i0 = 0; i0 < ni; i0 += kBlock) {
      const std::size_t nb = std::min(kBlock, ni - i0);
      if (nt < 64) std::memset(tile, 0, nb * sizeof tile[0]);
      for (std::size_t t = 0; t < nt; ++t) {
        const Triple* pv = tests[t0 + t].pi_values.data() + i0;
        for (std::size_t i = 0; i < nb; ++i) {
          tile[i][t] = kCodes.code[static_cast<int>(pv[i].a1)]
                                  [static_cast<int>(pv[i].a3)];
        }
      }
      for (std::size_t i = 0; i < nb; ++i) {
        pack_code_row(tile[i], pt, i0 + i, w);
      }
    }
  }
}

void build_req_plan(const CompiledCircuit& cc,
                    std::span<const TargetFault> faults, ReqPlan& plan) {
  static const ReqCodeTable kReqCodes;
  plan.atoms.clear();
  plan.ids.clear();
  plan.offsets.clear();
  plan.lut.assign(cc.node_count() * 6, -1);
  plan.offsets.reserve(faults.size() + 1);
  plan.offsets.push_back(0);
  for (const TargetFault& fault : faults) {
    for (const auto& r : fault.requirements) {
      const auto& e = kReqCodes.entry[ReqCodeTable::key(r.value)];
      for (int j = 0; j < e.count; ++j) {
        const std::uint32_t key =
            static_cast<std::uint32_t>(r.line) * 6 + e.qp[j];
        std::int32_t& slot = plan.lut[key];
        if (slot < 0) {
          slot = static_cast<std::int32_t>(plan.atoms.size());
          plan.atoms.push_back(key);
        }
        plan.ids.push_back(static_cast<std::uint32_t>(slot));
      }
    }
    plan.offsets.push_back(static_cast<std::uint32_t>(plan.ids.size()));
  }
}

void prepare_batch(const CompiledCircuit& cc,
                   std::span<const TwoPatternTest> tests,
                   std::span<const TargetFault> faults, PreparedBatch& prep) {
  pack_tests(cc, tests, "prepared", prep.tests_pack);
  build_req_plan(cc, faults, prep.plan);
}

}  // namespace pdf::sim
