// Line-cover study: the alternative P0 criterion the paper cites (its
// reference [3], Li-Reddy-Sahni): one longest path through every line. This
// example selects that path set, builds its faults, generates enriched tests
// and prints the per-length coverage breakdown.
//
// Usage: ./examples/line_cover_study [circuit] [seed]
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "atpg/generator.hpp"
#include "base/number.hpp"
#include "faults/fault.hpp"
#include "faults/screen.hpp"
#include "gen/registry.hpp"
#include "paths/line_cover.hpp"
#include "report/coverage.hpp"
#include "report/table.hpp"

using namespace pdf;

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "error: %s\nusage: line_cover_study [circuit] [seed]\n",
               msg.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "s953_like";
  if (!has_benchmark(name)) usage("unknown circuit " + name);
  std::uint64_t seed = 1;
  if (argc > 2) {
    const std::optional<std::uint64_t> v = parse_decimal(argv[2]);
    if (!v) usage(std::string("not a whole decimal number: ") + argv[2]);
    seed = *v;
  }

  const Netlist nl = benchmark_circuit(name);
  const LineDelayModel dm(nl);
  const auto cover = select_line_cover_paths(dm);
  std::printf("circuit %s: %zu line-cover paths (one longest path through\n"
              "every line), lengths %d..%d\n",
              name.c_str(), cover.size(),
              cover.empty() ? 0 : cover.back().length,
              cover.empty() ? 0 : cover.front().length);

  // Faults of the cover paths, screened.
  std::vector<PathDelayFault> faults;
  for (const auto& cp : cover) {
    faults.push_back({cp.path, true, cp.length});
    faults.push_back({cp.path, false, cp.length});
  }
  ScreenStats st;
  const std::vector<TargetFault> targets =
      screen_faults(nl, std::move(faults), &st);
  std::printf("faults: %zu total, %zu provably undetectable, %zu targets\n\n",
              st.input_faults, st.conflict_dropped + st.implication_dropped,
              st.kept);
  if (targets.empty()) return 0;

  GeneratorConfig g;
  g.seed = seed;
  const GenerationResult r = generate_tests(nl, targets, {}, g);
  std::printf("generated %zu tests, detected %zu / %zu cover faults\n",
              r.tests.size(), r.detected_p0_count(), targets.size());

  const CoverageBreakdown b = coverage_by_length(targets, r.detected_p0);
  Table t("coverage by path length");
  t.columns({"length", "detected", "total", "ratio"});
  for (const auto& bucket : b.buckets) {
    char ratio[16];
    std::snprintf(ratio, sizeof ratio, "%.2f", bucket.ratio());
    t.row(bucket.length, bucket.detected, bucket.total, ratio);
  }
  t.print(std::cout);
  std::printf("\nsummary: %s\n", coverage_summary(b).c_str());
  return 0;
}
