// Quickstart: the complete pipeline on the paper's own example circuit, s27.
//
//   1. load a netlist and extract its combinational core,
//   2. enumerate the longest paths and build the target sets P0 / P1,
//   3. run the enrichment generator,
//   4. inspect the tests and the faults they detect.
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "enrich/enrichment.hpp"
#include "faultsim/batch_sim.hpp"
#include "gen/registry.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/combinational.hpp"

using namespace pdf;

int main() {
  // s27 ships with the library (it is printed in the paper); any .bench file
  // works the same way via parse_bench_file + extract_combinational.
  const Netlist seq = parse_bench_string(s27_bench_text(), "s27");
  const Netlist nl = extract_combinational(seq);
  const NetlistStats st = stats_of(nl);
  std::printf("s27 combinational core: %zu inputs, %zu outputs, %zu gates, "
              "%zu lines, depth %d\n",
              st.inputs, st.outputs, st.gates, st.lines, st.depth);

  // Target sets. s27 is tiny, so small budgets: P = the 40 longest-fault
  // budget, P0 = everything on the top lengths until at least 8 faults.
  TargetSetConfig tcfg;
  tcfg.n_p = 40;
  tcfg.n_p0 = 8;
  const EnrichmentWorkbench wb(nl, tcfg);
  const TargetSets& ts = wb.targets();
  std::printf("\ntarget sets: |P0| = %zu (length >= %d), |P1| = %zu, "
              "%zu undetectable faults screened out\n",
              ts.p0.size(), ts.cutoff_length, ts.p1.size(),
              ts.screen.conflict_dropped + ts.screen.implication_dropped);

  // Enriched generation: P0 drives the test count, P1 rides along for free.
  GeneratorConfig gcfg;
  gcfg.seed = 2002;
  const GenerationResult r = wb.run_enriched(gcfg);
  const UnionCoverage cov = wb.coverage_of(r);
  std::printf("\ngenerated %zu two-pattern tests\n", r.tests.size());
  std::printf("  P0 coverage:      %zu / %zu\n", cov.p0_detected, cov.p0_total);
  std::printf("  P1 coverage:      %zu / %zu (free)\n", cov.p1_detected,
              cov.p1_total);

  // Show each test and what it detects: one detection matrix (faults x
  // tests) per target set.
  const BatchSimulator sim(nl);
  const DetectionMatrix d0 = sim.detection_matrix(r.tests, ts.p0);
  const DetectionMatrix d1 = sim.detection_matrix(r.tests, ts.p1);
  for (std::size_t i = 0; i < r.tests.size(); ++i) {
    std::printf("\ntest %zu: %s\n", i, r.tests[i].patterns_string().c_str());
    for (std::size_t k = 0; k < ts.p0.size(); ++k) {
      if (d0.bit(k, i)) {
        std::printf("  detects [P0] %s\n",
                    fault_to_string(nl, ts.p0[k].fault).c_str());
      }
    }
    for (std::size_t k = 0; k < ts.p1.size(); ++k) {
      if (d1.bit(k, i)) {
        std::printf("  detects [P1] %s\n",
                    fault_to_string(nl, ts.p1[k].fault).c_str());
      }
    }
  }
  return 0;
}
