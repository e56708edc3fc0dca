// Parameterized backend conformance suite: every backend registered in
// sim::all_backends() — scalar, bitpar, and whichever wide SIMD
// backends the host CPU supports — must agree bit-for-bit with the scalar
// per-test simulation (compiled simulate + satisfied) and with the
// brute-force oracle on the shared fixture circuits, at any thread count and
// at every tail-lane count. Each backend name compiled into the build is a
// gtest parameter, so failures name the backend directly; an instance whose
// backend this host (or its PDF_SIMD cap) does not register reports Skipped.
//
// Every test that builds a BatchSimulator without naming a backend runs the
// host's default, sim::selected_backend(). CI runs the whole test binary
// once per PDF_SIMD cap (none, avx2, native), so each packed width is the
// default in one leg.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "base/rng.hpp"
#include "base/triple.hpp"
#include "faults/requirements.hpp"
#include "faults/screen.hpp"
#include "faultsim/batch_sim.hpp"
#include "oracle/oracle.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/backend.hpp"
#include "sim/cpu_features.hpp"
#include "sim/triple_sim.hpp"
#include "testutil/circuits.hpp"

namespace pdf {
namespace {

// Restores a 1-thread pool no matter how a test exits.
struct ThreadGuard {
  ~ThreadGuard() { runtime::set_global_threads(1); }
};

// The registered backend called `name`; nullptr when this host (or its
// PDF_SIMD cap) does not register it.
sim::SimBackend* registered(std::string_view name) {
  for (sim::SimBackend* b : sim::all_backends()) {
    if (name == b->name()) return b;
  }
  return nullptr;
}

/// XOR/XNOR coverage: p = XOR(a, b), q = XNOR(p, c), z = XOR(a, q).
Netlist xor_circuit() {
  Netlist nl("xors");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId p = nl.add_gate("p", GateType::Xor, {a, b});
  const NodeId q = nl.add_gate("q", GateType::Xnor, {p, c});
  const NodeId z = nl.add_gate("z", GateType::Xor, {a, q});
  nl.mark_output(z);
  nl.finalize();
  return nl;
}

std::vector<Netlist> fixtures() {
  std::vector<Netlist> out;
  out.push_back(testutil::tiny_and_or());
  out.push_back(testutil::reconvergent());
  out.push_back(testutil::chain_circuit(6));
  out.push_back(xor_circuit());
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    Rng rng(seed);
    out.push_back(testutil::random_small_netlist(rng));
  }
  return out;
}

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

/// One single-line requirement per node and plane-edge: exercises every
/// {0,1,x} encoding case of every backend on every line of the circuit.
std::vector<TargetFault> probe_faults(const Netlist& nl) {
  std::vector<TargetFault> out;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    for (const Triple& req : {kSteady0, kSteady1, kRise, kFall}) {
      TargetFault tf;
      tf.requirements = {{id, req}};
      out.push_back(std::move(tf));
    }
  }
  return out;
}

/// Robust-sensitizable path faults with their requirement lists, plus the
/// raw fault list (for the oracle, which takes PathDelayFaults).
struct PathTargets {
  std::vector<TargetFault> targets;
  std::vector<PathDelayFault> faults;
};

PathTargets path_targets(const Netlist& nl) {
  PathTargets out;
  const auto paths = oracle::all_complete_paths(nl, 20'000);
  for (const auto& rp : paths) {
    for (const bool rising : {true, false}) {
      PathDelayFault f;
      f.path.nodes = rp.nodes;
      f.rising_source = rising;
      f.length = rp.length;
      FaultRequirements reqs = build_requirements(nl, f, Sensitization::Robust);
      if (reqs.conflicting) continue;
      out.targets.push_back(TargetFault{f, std::move(reqs.values)});
      out.faults.push_back(std::move(f));
    }
  }
  return out;
}

// A BackendP parameter. Test discovery puts the printed parameter into each
// ctest name, so it prints as the bare backend name.
struct BackendName {
  const char* name;
};

void PrintTo(const BackendName& b, std::ostream* os) { *os << b.name; }

// Every backend compiled into the build. Test discovery runs at build time,
// so BackendP is instantiated over these names rather than over the
// registry, and each instance resolves its backend when it runs.
constexpr BackendName kBackendNames[] = {
    {"scalar"}, {"bitpar"}, {"avx2"}, {"avx512"}};

class BackendP : public ::testing::TestWithParam<BackendName> {
 protected:
  void SetUp() override {
    backend_ = registered(GetParam().name);
    if (backend_ == nullptr) {
      GTEST_SKIP() << GetParam().name << " is not registered on this host";
    }
  }

  sim::SimBackend* backend_ = nullptr;
};

TEST(Backend, RegistryOrderAndCapabilityGating) {
  const auto backends = sim::all_backends();
  ASSERT_GE(backends.size(), 2u);
  EXPECT_EQ(backends[0], &sim::scalar_backend());
  EXPECT_EQ(backends[1], &sim::bitpar_backend());
  // The fault-parallel backend is gone: its name is not registered.
  EXPECT_EQ(registered("faultpar"), nullptr);
  // The wide backends appear exactly when the (PDF_SIMD-capped) capability
  // probe allows: unsupported hosts must degrade to an unregistered name,
  // never to a registered-but-crashing backend.
  const sim::SimdLevel level = sim::simd_level();
  EXPECT_EQ(registered("avx2") != nullptr, level >= sim::SimdLevel::kAvx2);
  EXPECT_EQ(registered("avx512") != nullptr,
            level >= sim::SimdLevel::kAvx512);
  // BackendP is instantiated over every name that can register.
  for (sim::SimBackend* b : backends) {
    const auto listed = [&](BackendName n) {
      return std::string_view(n.name) == b->name();
    };
    EXPECT_TRUE(std::any_of(std::begin(kBackendNames), std::end(kBackendNames),
                            listed))
        << b->name();
  }
}

TEST(Backend, LanesMatchAdvertisedWidths) {
  EXPECT_EQ(sim::scalar_backend().lanes(), 1u);
  EXPECT_EQ(sim::bitpar_backend().lanes(), 64u);
  if (sim::SimBackend* b = registered("avx2")) {
    EXPECT_EQ(b->lanes(), 256u);
  }
  if (sim::SimBackend* b = registered("avx512")) {
    EXPECT_EQ(b->lanes(), 512u);
  }
}

TEST(Backend, DefaultSelectionIsWidestTestParallel) {
  // The default is the widest registered packed backend — never scalar —
  // and a BatchSimulator built without a backend runs it.
  std::size_t widest = 0;
  for (sim::SimBackend* b : sim::all_backends()) {
    widest = std::max(widest, b->lanes());
  }
  EXPECT_EQ(sim::selected_backend().lanes(), widest);
  EXPECT_EQ(&sim::selected_backend(), sim::all_backends().back());
  EXPECT_NE(&sim::selected_backend(), &sim::scalar_backend());
  const Netlist nl = testutil::tiny_and_or();
  EXPECT_EQ(&BatchSimulator(nl).backend(), &sim::selected_backend());
}

INSTANTIATE_TEST_SUITE_P(
    All, BackendP, ::testing::ValuesIn(kBackendNames),
    [](const ::testing::TestParamInfo<BackendName>& info) {
      return std::string(info.param.name);
    });

TEST_P(BackendP, MatchesScalarSimulatorOnFixtures) {
  sim::SimBackend* backend = backend_;
  for (const Netlist& nl : fixtures()) {
    const auto targets = probe_faults(nl);
    const auto tests = random_tests(nl, 0xabc0 + nl.node_count(), 70);
    const BatchSimulator fsim(nl, backend);
    const DetectionMatrix m = fsim.detection_matrix(tests, targets);
    const CompiledCircuit cc(nl);
    SimScratch scratch;
    for (std::size_t t = 0; t < tests.size(); ++t) {
      const auto values = simulate(cc, tests[t].pi_values, scratch);
      for (std::size_t f = 0; f < targets.size(); ++f) {
        ASSERT_EQ(m.bit(f, t), satisfied(values, targets[f].requirements))
            << nl.name() << " backend " << backend->name() << " fault " << f
            << " test " << t;
      }
    }
  }
}

TEST_P(BackendP, MatchesOracleOnPathFaults) {
  sim::SimBackend* backend = backend_;
  for (const Netlist& nl : fixtures()) {
    // build_requirements only walks primitive-logic paths; the XOR fixture
    // is exercised against the scalar simulator in the probe-fault test.
    bool primitive = true;
    for (NodeId id = 0; id < nl.node_count(); ++id) {
      const GateType t = nl.node(id).type;
      primitive = primitive && (t == GateType::Input || is_primitive_logic(t));
    }
    if (!primitive) continue;
    const PathTargets pt = path_targets(nl);
    if (pt.targets.empty()) continue;
    const auto tests = random_tests(nl, 0xdef0 + nl.node_count(), 40);
    const std::vector<bool> want = oracle::detects_any(nl, tests, pt.faults);
    const BatchSimulator fsim(nl, backend);
    const std::vector<bool> got = fsim.detects_any(tests, pt.targets);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i])
          << nl.name() << " backend " << backend->name() << " fault " << i;
    }
  }
}

TEST_P(BackendP, MatricesIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  sim::SimBackend* backend = backend_;
  Rng rng(77);
  const Netlist nl = testutil::random_small_netlist(rng);
  const auto targets = probe_faults(nl);
  const auto tests = random_tests(nl, 0x7777, 130);  // crosses a word boundary
  const BatchSimulator fsim(nl, backend);
  runtime::set_global_threads(1);
  const DetectionMatrix m1 = fsim.detection_matrix(tests, targets);
  runtime::set_global_threads(4);
  const DetectionMatrix m4 = fsim.detection_matrix(tests, targets);
  EXPECT_EQ(m1, m4) << backend->name();
}

// Partial-word handling at every lane width: one below / at / above each of
// the 64 (bitpar), 256 (avx2) and 512 (avx512) lane boundaries,
// plus a single test. Every backend must match the scalar reference matrix
// byte-for-byte — including the padding bits of the final word, which must
// be zero (consumers like DetectionMatrix::any and popcount-based coverage
// trust them).
TEST_P(BackendP, TailMaskingAtLaneBoundaries) {
  sim::SimBackend* backend = backend_;
  Rng rng(99);
  const Netlist nl = testutil::random_small_netlist(rng);
  const auto targets = probe_faults(nl);
  const BatchSimulator ref(nl, &sim::scalar_backend());
  const BatchSimulator fsim(nl, backend);
  const std::size_t kCounts[] = {1, 63, 64, 65, 255, 256, 257, 511, 512, 513};
  for (const std::size_t count : kCounts) {
    const auto tests = random_tests(nl, 0x9a00 + count, count);
    const DetectionMatrix want = ref.detection_matrix(tests, targets);
    const DetectionMatrix got = fsim.detection_matrix(tests, targets);
    ASSERT_EQ(got, want) << backend->name() << " at " << count << " tests";
    if (count % 64 != 0) {
      const std::size_t last = got.words_per_row() - 1;
      for (std::size_t f = 0; f < targets.size(); ++f) {
        ASSERT_EQ(got.word(f, last) >> (count % 64), 0u)
            << backend->name() << " leaves padding bits at " << count
            << " tests, fault " << f;
      }
    }
  }
}

// The prepared path (pack + requirement plan built once, re-masked per
// call) must be byte-identical to the one-shot path for every backend and
// at awkward tail counts — and the PreparedBatch must be reusable across
// backends, since the precomputation is width-independent by design.
TEST_P(BackendP, PreparedMatchesUnprepared) {
  sim::SimBackend* backend = backend_;
  Rng rng(55);
  const Netlist nl = testutil::random_small_netlist(rng);
  const auto targets = probe_faults(nl);
  const BatchSimulator fsim(nl, backend);
  sim::PreparedBatch prep;
  for (const std::size_t count : {1, 65, 257, 513}) {
    const auto tests = random_tests(nl, 0xb000 + count, count);
    fsim.prepare(tests, targets, prep);  // reuses prep's buffers each round
    const DetectionMatrix want = fsim.detection_matrix(tests, targets);
    const DetectionMatrix got = fsim.detection_matrix(tests, targets, prep);
    ASSERT_EQ(got, want) << backend->name() << " at " << count << " tests";
  }
}

/// `n_in` inputs, each feeding a two-input gate with its ring neighbour
/// (one NOT for a single input); every gate is an output, so each input
/// line's own probe faults read its packed planes directly.
Netlist wide_input_netlist(std::size_t n_in) {
  Netlist nl("wide" + std::to_string(n_in));
  std::vector<NodeId> in;
  for (std::size_t i = 0; i < n_in; ++i) {
    in.push_back(nl.add_input("i" + std::to_string(i)));
  }
  static constexpr GateType kTypes[] = {GateType::And, GateType::Or,
                                        GateType::Xor, GateType::Nand};
  if (n_in == 1) {
    nl.mark_output(nl.add_gate("z", GateType::Not, {in[0]}));
  } else {
    for (std::size_t i = 0; i < n_in; ++i) {
      nl.mark_output(nl.add_gate("g" + std::to_string(i), kTypes[i % 4],
                                 {in[i], in[(i + 1) % n_in]}));
    }
  }
  nl.finalize();
  return nl;
}

/// Random tests whose pattern values include X, so every predicate code of
/// the pack (known or not, 0 or 1, per plane) occurs on every input.
std::vector<TwoPatternTest> partial_tests(std::size_t n_in, std::uint64_t seed,
                                          std::size_t count) {
  static constexpr V3 kVals[] = {V3::Zero, V3::One, V3::X};
  Rng rng(seed);
  std::vector<TwoPatternTest> out(count);
  for (TwoPatternTest& t : out) {
    t.pi_values.resize(n_in);
    for (Triple& tri : t.pi_values) {
      tri = pi_triple(kVals[rng.below(3)], kVals[rng.below(3)]);
    }
  }
  return out;
}

// The test pack transposes in blocks of 64 inputs x 64 tests, and
// random_small_netlist has at most 6 inputs, so this covers the block
// edges on both axes: input counts around one and two blocks, test counts
// of one, just past one word and just past one avx512 word. One-shot and
// prepared results must both equal scalar's.
TEST_P(BackendP, MultiBlockPackingMatchesScalar) {
  sim::SimBackend* backend = backend_;
  for (const std::size_t n_in : {1, 63, 64, 65, 130}) {
    const Netlist nl = wide_input_netlist(n_in);
    const auto targets = probe_faults(nl);
    const BatchSimulator ref(nl, &sim::scalar_backend());
    const BatchSimulator fsim(nl, backend);
    sim::PreparedBatch prep;
    for (const std::size_t count : {1, 65, 513}) {
      const auto tests = partial_tests(n_in, 0xc000 + n_in * 1000 + count,
                                       count);
      const DetectionMatrix want = ref.detection_matrix(tests, targets);
      ASSERT_EQ(fsim.detection_matrix(tests, targets), want)
          << backend->name() << " at " << n_in << " inputs, " << count
          << " tests";
      fsim.prepare(tests, targets, prep);
      ASSERT_EQ(fsim.detection_matrix(tests, targets, prep), want)
          << backend->name() << " prepared at " << n_in << " inputs, "
          << count << " tests";
    }
  }
}

TEST_P(BackendP, RejectsSequentialCircuits) {
  sim::SimBackend* backend = backend_;
  Netlist nl("seq");
  const NodeId a = nl.add_input("a");
  const NodeId ff = nl.add_gate("ff", GateType::Dff, {a});
  const NodeId z = nl.add_gate("z", GateType::Not, {ff});
  nl.mark_output(z);
  nl.finalize();
  ASSERT_TRUE(nl.has_sequential());
  EXPECT_THROW(BatchSimulator(nl, backend), std::logic_error);
}

}  // namespace
}  // namespace pdf
