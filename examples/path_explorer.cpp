// Path explorer: structural path analysis of a circuit — the front half of
// the paper's pipeline, useful on its own for timing-oriented exploration.
//
// Usage:
//   ./examples/path_explorer [circuit-or-bench-file] [n_paths]
//
// `circuit-or-bench-file` is a registry name (default s1423_like) or a path
// to a .bench file (sequential files are reduced to their combinational
// core; XOR gates are decomposed).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <optional>
#include <string>

#include "base/number.hpp"
#include "gen/registry.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/combinational.hpp"
#include "netlist/transform.hpp"
#include "paths/distance.hpp"
#include "paths/enumerate.hpp"
#include "paths/length_stats.hpp"
#include "report/table.hpp"

using namespace pdf;

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "error: %s\nusage: path_explorer [circuit-or-bench-file] "
               "[n_paths]\n",
               msg.c_str());
  std::exit(2);
}

Netlist load(const std::string& what) {
  if (has_benchmark(what)) return benchmark_circuit(what);
  try {
    const Netlist seq = parse_bench_file(what);
    return decompose_xor(extract_combinational(seq));
  } catch (const std::exception& e) {
    usage(what + " is no registry circuit or readable .bench file: " +
          e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string what = argc > 1 ? argv[1] : "s1423_like";
  std::size_t budget = 2000;
  if (argc > 2) {
    const std::optional<std::uint64_t> v = parse_decimal(argv[2]);
    if (!v || *v == 0) {
      usage(std::string("n_paths must be a positive whole decimal number: ") +
            argv[2]);
    }
    budget = *v;
  }

  const Netlist nl = load(what);
  const NetlistStats st = stats_of(nl);
  std::printf("circuit %s: %zu inputs, %zu outputs, %zu gates, %zu lines, "
              "depth %d\n\n",
              nl.name().c_str(), st.inputs, st.outputs, st.gates, st.lines,
              st.depth);

  const LineDelayModel dm(nl);
  EnumerationConfig cfg;
  cfg.max_faults = budget;
  const EnumerationResult r = enumerate_longest_paths(dm, cfg);
  std::printf("enumerated the %zu longest paths (budget %zu faults, %zu steps%s)\n\n",
              r.paths.size(), budget, r.steps,
              r.step_limit_hit ? ", truncated" : "");

  // Length histogram, Table-2 style.
  std::vector<int> lengths;
  for (const auto& p : r.paths) lengths.push_back(p.length);
  const LengthProfile profile(lengths);
  Table hist("path length profile (top 25)");
  hist.columns({"i", "L_i", "n_p(L_i)", "N_p(L_i)"});
  const auto& buckets = profile.buckets();
  for (std::size_t i = 0; i < buckets.size() && i < 25; ++i) {
    hist.row(i, buckets[i].length, buckets[i].count, buckets[i].cumulative);
  }
  hist.print(std::cout);

  // The longest paths themselves.
  std::printf("\nlongest paths:\n");
  for (std::size_t i = 0; i < r.paths.size() && i < 10; ++i) {
    std::printf("  [len %d] %s\n", r.paths[i].length,
                path_to_string(nl, r.paths[i].path).c_str());
  }

  // Distance summary: which lines dominate the slack picture.
  const auto d = distances_to_outputs(dm);
  int unreachable = 0;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (d[id] == kUnreachable) ++unreachable;
  }
  std::printf("\n%d node(s) cannot reach any output\n", unreachable);
  return 0;
}
