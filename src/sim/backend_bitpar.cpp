// BitParallelBackend: pattern-parallel robust simulation, 64 tests per word.
//
// Classic bit-sliced simulation adapted to the two-pattern triple algebra:
// each of the three planes is a 3-valued network, and a 3-valued signal
// across 64 tests packs into two words — `known` (bit set: the value is
// specified for that test) and `value` (meaningful, and only ever set, where
// known). Gate evaluation is a handful of word operations regardless of how
// many tests are packed, and requirement checking reduces to mask
// intersection:
//
//   detected(test, fault) = AND over requirements r, planes q specified in r:
//                           known[r.line][q] & (value ^ ~required)
//
// The kernel itself lives in backend_wide.hpp, shared with the avx2 and
// avx512 backends; this TU is the Vec = std::uint64_t instantiation,
// compiled with baseline ISA flags. Produces matrices bit-identical to
// ScalarBackend at a fraction of the cost for large test sets (see
// `micro_engines backends`); 64-test word columns farm out over the runtime
// thread pool, bit-identical for any thread count.
#include "sim/backend_wide.hpp"

namespace pdf::sim {

SimBackend& bitpar_backend() {
  static WideBackend<std::uint64_t> backend("bitpar", "sim.bitpar.matrix");
  return backend;
}

}  // namespace pdf::sim
