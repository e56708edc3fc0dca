// Ablation (paper remark): greedy simulation-based justification vs the
// complete branch-and-bound search. The paper attributes its per-heuristic
// variations to random value selection and notes branch-and-bound would
// eliminate them. This sweep measures what that costs and buys: per-fault
// justification success rates, proven-undetectable counts, and end-to-end
// generation results that are bit-identical across repeats.
#include <cstdio>

#include "atpg/justify.hpp"
#include "bench/common.hpp"

using namespace pdf;
using namespace pdf::bench;

int main(int argc, char** argv) {
  Options o = parse_options(argc, argv, {"b03_like", "s953_like"});
  print_header("Ablation: greedy vs branch-and-bound justification", o);

  for (const auto& name : o.circuits) {
    CircuitScope circuit_scope(o, name);
    const Netlist nl = benchmark_circuit(name);
    const EnrichmentWorkbench wb(nl, target_config(o), o.cache());
    const TargetSets& ts = wb.targets();
    if (ts.p0.empty()) continue;

    // Per-fault justification comparison over P0.
    JustificationEngine greedy(nl, o.seed);
    JustificationEngine bnb(nl, o.seed);
    std::size_t g_ok = 0, b_sat = 0, b_unsat = 0, b_abort = 0;
    for (const auto& tf : ts.p0) {
      if (greedy.justify(tf.requirements).has_value()) ++g_ok;
      switch (bnb.branch_and_bound(tf.requirements).status) {
        case BnbStatus::Satisfiable: ++b_sat; break;
        case BnbStatus::Unsatisfiable: ++b_unsat; break;
        case BnbStatus::Aborted: ++b_abort; break;
      }
    }

    Table t("circuit " + name + "  (|P0| = " + std::to_string(ts.p0.size()) + ")");
    t.columns({"engine", "justified", "proven untestable", "aborted"});
    t.row("greedy (paper)", g_ok, "-", "-");
    t.row("branch-and-bound", b_sat, b_unsat, b_abort);
    emit(t, o);

    // End-to-end generation under both engines.
    Table e("generation with each engine");
    e.columns({"engine", "tests", "P0 det", "P1 det"});
    for (bool use_bnb : {false, true}) {
      GeneratorConfig g;
      g.heuristic = CompactionHeuristic::Value;
      g.seed = o.seed;
      g.use_branch_and_bound = use_bnb;
      const GenerationResult r = wb.run_enriched(g);
      const char* engine = use_bnb ? "branch-and-bound" : "greedy (paper)";
      e.row(engine, r.tests.size(), r.detected_p0_count(),
            r.detected_p1_count());
      std::fprintf(stderr, "  %s/%s: %.2fs\n", name.c_str(), engine,
                   r.stats.seconds);
    }
    emit(e, o);
  }
  std::printf(
      "expected shape: branch-and-bound justifies at least as many faults\n"
      "and proves the rest undetectable (aborts aside) at a runtime cost;\n"
      "its generation output is invariant across repeats.\n");
  finish_run(o);
  return 0;
}
