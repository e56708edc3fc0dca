// pdf_check — generative differential fuzzer for every engine in the library.
//
// Each case seeds a random small circuit (optionally perturbed by structural
// mutators), then runs the production engines against the brute-force oracle
// in src/oracle/ and against themselves across execution conditions (thread
// counts, artifact-store cold/warm). On the first failure the case is shrunk
// to a near-minimal netlist and written to a repro file that --replay reruns.
//
//   pdf_check [--cases N] [--seed S | --seed from-git-sha] [--threads N]
//             [--check NAME] [--repro FILE] [--replay FILE]
//             [--list-checks] [--list-backends] [--verbose]
//
// Engines that don't pin a backend run the host's default, the widest
// registered one (cap it with PDF_SIMD); `backends_agree` pins every
// registered backend in turn. `--list-backends` prints one registered
// backend name per line, widest last, and exits — the capability probe CI
// uses to decide which PDF_SIMD matrix legs this host can run (wide SIMD
// backends only register on capable CPUs; see src/sim/cpu_features.hpp).
//
// Exit status: 0 clean, 1 check failure (repro written), 2 usage/setup error.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/number.hpp"
#include "base/rng.hpp"
#include "netlist/netlist.hpp"
#include "pdf_check/checks.hpp"
#include "pdf_check/shrink.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/backend.hpp"
#include "testutil/circuits.hpp"

namespace {

using pdf::check::Check;
using pdf::check::Failure;

struct Options {
  std::size_t cases = 2000;
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  std::string only_check;
  std::string repro_path = "pdf_check_repro.bench";
  std::string replay_path;
  bool verbose = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--cases N] [--seed S|from-git-sha] [--threads N]\n"
               "          [--check NAME] [--repro FILE] [--replay FILE]\n"
               "          [--list-checks] [--list-backends] [--verbose]\n",
               argv0);
  std::exit(2);
}

/// `--seed from-git-sha`: derive the seed from HEAD so every CI run fuzzes a
/// different region of the space while staying reproducible from the log.
std::uint64_t seed_from_git_sha() {
  FILE* pipe = popen("git rev-parse HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return 1;
  char sha[128] = {0};
  const bool got = std::fgets(sha, sizeof sha, pipe) != nullptr;
  pclose(pipe);
  if (!got) {
    std::fprintf(stderr, "pdf_check: cannot read git HEAD, using seed 1\n");
    return 1;
  }
  std::uint64_t seed = 0xcbf29ce484222325ULL;  // FNV-1a over the hex digits
  for (const char* p = sha; *p != '\0' && *p != '\n'; ++p) {
    seed = (seed ^ static_cast<unsigned char>(*p)) * 0x100000001b3ULL;
  }
  return seed;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    const auto number = [&]() -> std::uint64_t {
      const std::optional<std::uint64_t> v = pdf::parse_decimal(value());
      if (!v) usage(argv[0]);
      return *v;
    };
    if (arg == "--cases") {
      o.cases = number();
    } else if (arg == "--seed") {
      const std::string v = value();
      if (v == "from-git-sha") {
        o.seed = seed_from_git_sha();
      } else if (v.starts_with("0x") || v.starts_with("0X")) {
        // The clean-run summary prints the seed in hex; accept it back.
        const char* end = v.data() + v.size();
        const auto [ptr, ec] = std::from_chars(v.data() + 2, end, o.seed, 16);
        if (ec != std::errc{} || ptr != end) usage(argv[0]);
      } else {
        const std::optional<std::uint64_t> seed = pdf::parse_decimal(v);
        if (!seed) usage(argv[0]);
        o.seed = *seed;
      }
    } else if (arg == "--threads") {
      o.threads = number();
    } else if (arg == "--check") {
      o.only_check = value();
    } else if (arg == "--repro") {
      o.repro_path = value();
    } else if (arg == "--replay") {
      o.replay_path = value();
    } else if (arg == "--list-checks") {
      for (const Check& c : pdf::check::all_checks()) {
        std::printf("%s (every %zu cases)\n", c.name, c.stride);
      }
      std::exit(0);
    } else if (arg == "--list-backends") {
      for (pdf::sim::SimBackend* b : pdf::sim::all_backends()) {
        std::printf("%s\n", b->name());
      }
      std::exit(0);
    } else if (arg == "--verbose") {
      o.verbose = true;
    } else {
      usage(argv[0]);
    }
  }
  return o;
}

/// Builds case number `i`: a seeded random circuit, 0-2 structural mutations,
/// and sometimes an extra observation point on an internal stem (so complete
/// paths can end at fanout nodes, which is where the branch line at the
/// output tap matters).
pdf::Netlist make_case(std::uint64_t case_seed) {
  pdf::Rng rng(case_seed);
  pdf::Netlist nl = pdf::testutil::random_small_netlist(rng);
  const std::uint64_t mutations = rng.below(3);
  for (std::uint64_t m = 0; m < mutations; ++m) {
    nl = pdf::testutil::mutate_structure(nl, rng);
  }
  if (rng.coin()) {
    std::vector<pdf::NodeId> stems;
    for (pdf::NodeId id = 0; id < nl.node_count(); ++id) {
      if (!nl.node(id).is_output && nl.node(id).type != pdf::GateType::Input &&
          !nl.node(id).fanout.empty()) {
        stems.push_back(id);
      }
    }
    if (!stems.empty()) {
      nl.mark_output(stems[rng.below(stems.size())]);
      nl.finalize();
    }
  }
  return nl;
}

int report_and_shrink(Failure f, const Options& o) {
  std::fprintf(stderr, "pdf_check: FAIL [%s] seed=0x%016llx\n  %s\n",
               f.check->name, static_cast<unsigned long long>(f.seed),
               f.message.c_str());
  const std::size_t before = f.netlist.node_count();
  pdf::check::shrink(f);
  pdf::check::write_repro(f, o.repro_path);
  std::fprintf(stderr,
               "  shrunk %zu -> %zu nodes; repro written to %s\n  %s\n",
               before, f.netlist.node_count(), o.repro_path.c_str(),
               f.message.c_str());
  return 1;
}

int replay(const Options& o) {
  const pdf::check::Replay r = pdf::check::read_repro(o.replay_path);
  const Check* check = pdf::check::find_check(r.check_name);
  if (check == nullptr) {
    std::fprintf(stderr, "pdf_check: unknown check '%s' in %s\n",
                 r.check_name.c_str(), o.replay_path.c_str());
    return 2;
  }
  if (const auto msg = check->fn(r.netlist, r.seed)) {
    std::fprintf(stderr, "pdf_check: replay FAIL [%s]\n  %s\n", check->name,
                 msg->c_str());
    return 1;
  }
  std::printf("pdf_check: replay of %s passes\n", o.replay_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  try {
    pdf::runtime::set_global_threads(o.threads);  // throws above kMaxThreads
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "pdf_check: %s\n", e.what());
    return 2;
  }
  pdf::check::set_base_threads(o.threads);

  if (!o.replay_path.empty()) return replay(o);

  if (o.only_check != "" && pdf::check::find_check(o.only_check) == nullptr) {
    std::fprintf(stderr, "pdf_check: unknown check '%s'\n", o.only_check.c_str());
    return 2;
  }

  std::size_t executed = 0;
  for (std::size_t i = 0; i < o.cases; ++i) {
    const std::uint64_t case_seed = pdf::check::mix(o.seed, i);
    const pdf::Netlist nl = make_case(case_seed);
    for (const Check& c : pdf::check::all_checks()) {
      if (!o.only_check.empty() && o.only_check != c.name) continue;
      if (o.only_check.empty() && i % c.stride != 0) continue;
      ++executed;
      std::optional<std::string> msg;
      try {
        msg = c.fn(nl, case_seed);
      } catch (const std::exception& e) {
        msg = std::string("unexpected exception: ") + e.what();
      }
      if (msg) {
        return report_and_shrink(
            Failure{nl, &c, case_seed, std::move(*msg)}, o);
      }
    }
    if (o.verbose && (i + 1) % 500 == 0) {
      std::fprintf(stderr, "pdf_check: %zu/%zu cases, %zu checks run\n", i + 1,
                   o.cases, executed);
    }
  }
  std::printf("pdf_check: %zu cases, %zu check runs, all clean (seed 0x%llx)\n",
              o.cases, executed, static_cast<unsigned long long>(o.seed));
  return 0;
}
