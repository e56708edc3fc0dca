// bench_atpg: a complete command-line ATPG for path delay faults — the tool
// a downstream user would run on their own netlists.
//
// Usage:
//   ./examples/bench_atpg --circuit s1423_like [options]
//   ./examples/bench_atpg --bench my_design.bench [options]
//
// Options:
//   --np N          fault budget for path enumeration      (default 4000)
//   --np0 N         minimum size of the must-detect set P0 (default 300)
//   --heuristic H   uncomp | arbit | length | values       (default values)
//   --no-enrich     basic generation (P0 only)
//   --seed S        RNG seed                               (default 1)
//   --out FILE      write the two-pattern tests to FILE
//   --list          list registry circuits and exit
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "atpg/test_io.hpp"
#include "base/number.hpp"
#include "enrich/enrichment.hpp"
#include "gen/registry.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/combinational.hpp"
#include "netlist/transform.hpp"
#include "paths/count.hpp"

using namespace pdf;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "error: %s\nsee the header of bench_atpg.cpp for usage\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string circuit, bench_file, out_file;
  TargetSetConfig tcfg;
  tcfg.n_p = 4000;
  tcfg.n_p0 = 300;
  GeneratorConfig gcfg;
  bool enrich = true;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    auto number = [&]() -> std::uint64_t {
      const std::optional<std::uint64_t> v = parse_decimal(next());
      if (!v) usage((a + " needs a whole decimal number").c_str());
      return *v;
    };
    if (a == "--circuit") {
      circuit = next();
    } else if (a == "--bench") {
      bench_file = next();
    } else if (a == "--np") {
      tcfg.n_p = number();
    } else if (a == "--np0") {
      tcfg.n_p0 = number();
    } else if (a == "--seed") {
      gcfg.seed = number();
    } else if (a == "--out") {
      out_file = next();
    } else if (a == "--no-enrich") {
      enrich = false;
    } else if (a == "--heuristic") {
      const std::string h = next();
      if (h == "uncomp") gcfg.heuristic = CompactionHeuristic::None;
      else if (h == "arbit") gcfg.heuristic = CompactionHeuristic::Arbitrary;
      else if (h == "length") gcfg.heuristic = CompactionHeuristic::Length;
      else if (h == "values") gcfg.heuristic = CompactionHeuristic::Value;
      else usage(("unknown heuristic " + h).c_str());
    } else if (a == "--list") {
      for (const auto& info : benchmark_catalog()) {
        std::printf("%-14s %-8s %s\n", info.name.c_str(),
                    info.paper_counterpart.c_str(), info.description.c_str());
      }
      return 0;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (circuit.empty() == bench_file.empty()) {
    usage("exactly one of --circuit / --bench is required");
  }
  if (!circuit.empty() && !has_benchmark(circuit)) {
    usage(("unknown circuit " + circuit + " (try --list)").c_str());
  }

  const Netlist nl =
      circuit.empty()
          ? decompose_xor(extract_combinational(parse_bench_file(bench_file)))
          : benchmark_circuit(circuit);
  const NetlistStats st = stats_of(nl);
  const PathCounts pc = count_paths(nl);
  std::printf("circuit %s: %zu inputs, %zu outputs, %zu gates, depth %d, "
              "%s%llu paths\n",
              nl.name().c_str(), st.inputs, st.outputs, st.gates, st.depth,
              pc.saturated ? ">= " : "",
              static_cast<unsigned long long>(pc.total));

  const EnrichmentWorkbench wb(nl, tcfg);
  const TargetSets& ts = wb.targets();
  std::printf("targets: |P0| = %zu (length >= %d), |P1| = %zu "
              "(%zu enumerated paths, %zu undetectable screened)\n",
              ts.p0.size(), ts.cutoff_length, ts.p1.size(),
              ts.enumerated_paths,
              ts.screen.conflict_dropped + ts.screen.implication_dropped);
  if (ts.p0.empty()) {
    std::printf("no robustly testable target faults; nothing to do\n");
    return 0;
  }

  const GenerationResult r = enrich ? wb.run_enriched(gcfg) : wb.run_basic(gcfg);
  const UnionCoverage c = wb.coverage_of(r);
  std::printf("%s generation (%s): %zu tests in %.2fs\n",
              enrich ? "enriched" : "basic", heuristic_name(gcfg.heuristic),
              r.tests.size(), r.stats.seconds);
  std::printf("coverage: P0 %zu/%zu, P1 %zu/%zu\n", c.p0_detected, c.p0_total,
              c.p1_detected, c.p1_total);

  if (!out_file.empty()) {
    write_tests_file(out_file, nl, r.tests);
    std::printf("wrote %zu tests to %s\n", r.tests.size(), out_file.c_str());
  }
  return 0;
}
