// Enrichment study: the paper's headline experiment on one circuit — how
// much of the next-to-longest-path fault set P1 do you get for free?
//
// Usage:
//   ./examples/enrichment_study [circuit] [N_P] [N_P0] [seed]
//
// Compares three strategies at identical budgets:
//   basic/uncomp — no compaction (the size baseline),
//   basic/values — compact tests for P0 only, P1 only by accident,
//   enriched     — compact tests for P0 with P1 as secondary targets.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "base/number.hpp"
#include "enrich/enrichment.hpp"
#include "gen/registry.hpp"
#include "report/table.hpp"

using namespace pdf;

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "error: %s\nusage: enrichment_study [circuit] [N_P] [N_P0] "
               "[seed]\n",
               msg.c_str());
  std::exit(2);
}

/// Positional argument `i` as a whole decimal number, or `fallback` when it
/// is absent.
std::uint64_t number_arg(int argc, char** argv, int i, std::uint64_t fallback) {
  if (argc <= i) return fallback;
  const std::optional<std::uint64_t> v = parse_decimal(argv[i]);
  if (!v) usage(std::string("not a whole decimal number: ") + argv[i]);
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "s953_like";
  if (!has_benchmark(name)) usage("unknown circuit " + name);
  TargetSetConfig tcfg;
  tcfg.n_p = number_arg(argc, argv, 2, 4000);
  tcfg.n_p0 = number_arg(argc, argv, 3, 300);
  const std::uint64_t seed = number_arg(argc, argv, 4, 1);
  if (tcfg.n_p == 0) usage("N_P must be > 0");

  const Netlist nl = benchmark_circuit(name);
  const EnrichmentWorkbench wb(nl, tcfg);
  const TargetSets& ts = wb.targets();
  std::printf("circuit %s: |P0| = %zu (len >= %d), |P1| = %zu\n\n",
              name.c_str(), ts.p0.size(), ts.cutoff_length, ts.p1.size());

  Table t("strategies at N_P=" + std::to_string(tcfg.n_p) +
          ", N_P0=" + std::to_string(tcfg.n_p0));
  t.columns({"strategy", "tests", "P0 det", "P1 det", "union det", "seconds"});

  auto add = [&](const char* label, const GenerationResult& r) {
    const UnionCoverage c = wb.coverage_of(r);
    t.row(label, r.tests.size(), c.p0_detected, c.p1_detected,
          c.union_detected(), r.stats.seconds);
  };

  GeneratorConfig g;
  g.seed = seed;
  g.heuristic = CompactionHeuristic::None;
  add("basic/uncomp", wb.run_basic(g));
  g.heuristic = CompactionHeuristic::Value;
  add("basic/values", wb.run_basic(g));
  add("enriched", wb.run_enriched(g));

  t.print(std::cout);
  std::printf(
      "\nreading: 'enriched' should match 'basic/values' in tests while\n"
      "detecting far more of P1 — the paper's free-quality improvement.\n");
  return 0;
}
