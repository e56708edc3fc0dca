#include "sim/backend.hpp"

#include <vector>

#include "sim/cpu_features.hpp"

namespace pdf::sim {

namespace {

// This TU is compiled with baseline ISA flags. The avx2/avx512 accessors
// live in TUs compiled with -mavx2/-mavx512f, so they are called — and
// their singletons constructed — only after the cpuid probe says the host
// can execute that code. Registration order is stable (scalar, bitpar, then
// ascending width) so diagnostics and test parameterization are
// deterministic per host+PDF_SIMD.
const std::vector<SimBackend*>& registry() {
  static const std::vector<SimBackend*> backends = [] {
    std::vector<SimBackend*> v = {&scalar_backend(), &bitpar_backend()};
    const SimdLevel level = simd_level();
    if (level >= SimdLevel::kAvx2) v.push_back(&avx2_backend());
    if (level >= SimdLevel::kAvx512) v.push_back(&avx512_backend());
    return v;
  }();
  return backends;
}

}  // namespace

std::span<SimBackend* const> all_backends() { return registry(); }

// The default is the widest registered backend (registration order ascends
// in width): every backend is bit-identical (enforced by pdf_check and
// test_backend), so the only difference is throughput, and wider wins on the
// batched workloads behind BatchSimulator. Callers that need a narrower one
// pin it through BatchSimulator's explicit-backend argument.
SimBackend& selected_backend() { return *registry().back(); }

}  // namespace pdf::sim
