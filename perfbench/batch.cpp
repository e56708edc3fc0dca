// The three batch workloads: enrich_p0p1 and basic_p0 (the paper's
// generation pipeline, Tables 3-6) and grade_random (fault grading of a large
// random test set, no ATPG). All run the runtime pool at one thread, as the
// table benches do.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "atpg/generator.hpp"
#include "base/rng.hpp"
#include "enrich/target_sets.hpp"
#include "faults/fault.hpp"
#include "faults/screen.hpp"
#include "faultsim/batch_sim.hpp"
#include "gen/registry.hpp"
#include "harness.hpp"
#include "paths/enumerate.hpp"
#include "paths/length_stats.hpp"
#include "paths/path.hpp"
#include "sim/backend.hpp"
#include "store/hash.hpp"
#include "store/serde.hpp"
#include "testutil/circuits.hpp"

namespace perfbench {
namespace {

using namespace pdf;

struct Circuit {
  std::string name;
  std::unique_ptr<Netlist> nl;  // heap-held: the simulator keeps a reference
  std::unique_ptr<BatchSimulator> sim;
};

/// The batch set-up: netlist materialization plus BatchSimulator
/// construction, replacing `out`. Returns its seconds (the release of the
/// previous circuits is not counted).
double materialize(const std::vector<std::string>& names,
                   std::vector<Circuit>& out) {
  out.clear();
  const auto t0 = Clock::now();
  for (const auto& name : names) {
    Circuit c;
    c.name = name;
    c.nl = std::make_unique<Netlist>(benchmark_circuit(name));
    c.sim = std::make_unique<BatchSimulator>(*c.nl);
    out.push_back(std::move(c));
  }
  return seconds_since(t0);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void fold_flags(store::Hasher64& h, const std::vector<bool>& flags) {
  h.update_u64(flags.size());
  for (bool b : flags) h.update_u8(b ? 1 : 0);
}

std::size_t count_true(const std::vector<bool>& v) {
  return static_cast<std::size_t>(std::count(v.begin(), v.end(), true));
}

/// Prints a circuit's output digest once per run; on later passes the digest
/// must repeat (every pass computes the same outputs).
bool digest_repeats(std::vector<std::uint64_t>& seen, std::size_t slot,
                    const std::string& label, std::uint64_t digest) {
  if (seen.size() <= slot) {
    seen.resize(slot + 1, 0);
    seen[slot] = digest;
    report("digest " + label + " " + hex(digest));
    return true;
  }
  return seen[slot] == digest;
}

struct Coverage {
  DetectionMatrix p0;    // tests x P0, for the per-test primary-target check
  std::vector<bool> p1;  // P1 faults detected by any test
};

Coverage coverage(Run& run, const Circuit& c,
                  std::span<const TwoPatternTest> tests,
                  std::span<const TargetFault> p0,
                  std::span<const TargetFault> p1) {
  const LayerCall call(run, "enrich.coverage_s", "enrich.coverage");
  Coverage cov;
  const LayerCall sim(run, "faultsim.matrix_s", "faultsim.detection_matrix");
  cov.p0 = c.sim->detection_matrix(tests, p0);
  cov.p1 = c.sim->detects_any(tests, p1);
  run.tally["faultsim.cells"] +=
      static_cast<double>(tests.size() * (p0.size() + p1.size()));
  return cov;
}

/// Every test robustly detects the P0 fault it was generated for, and the
/// generator's detection flags equal a BatchSimulator re-simulation.
bool generation_ok(const GenerationResult& g, const Coverage& cov,
                   bool enriched) {
  if (g.primary_targets.size() != g.tests.size()) return false;
  for (std::size_t t = 0; t < g.tests.size(); ++t) {
    if (!cov.p0.bit(g.primary_targets[t], t)) return false;
  }
  if (g.detected_p0.size() != cov.p0.fault_count()) return false;
  for (std::size_t f = 0; f < cov.p0.fault_count(); ++f) {
    if (cov.p0.any(f) != g.detected_p0[f]) return false;
  }
  return !enriched || g.detected_p1 == cov.p1;
}

void tally_generation(Run& run, const GenerationStats& s) {
  run.tally["atpg.primary_attempts"] += static_cast<double>(s.primary_attempts);
  run.tally["atpg.primary_failures"] += static_cast<double>(s.primary_failures);
  run.tally["atpg.secondary_accepted"] +=
      static_cast<double>(s.secondary_accepted);
  run.tally["atpg.secondary_rejected"] +=
      static_cast<double>(s.secondary_rejected);
  run.tally["atpg.justify_attempts"] += static_cast<double>(s.justify.attempts);
  run.tally["atpg.justify_successes"] +=
      static_cast<double>(s.justify.successes);
  run.tally["atpg.probes"] += static_cast<double>(s.justify.probes);
}

void tally_targets(Run& run, const ScreenStats& screen, std::size_t p0,
                   std::size_t p1) {
  run.tally["enrich.p0_faults"] += static_cast<double>(p0);
  run.tally["enrich.p1_faults"] += static_cast<double>(p1);
  run.tally["faults.screen_input"] += static_cast<double>(screen.input_faults);
  run.tally["faults.screen_kept"] += static_cast<double>(screen.kept);
}

/// enrich_p0p1 and basic_p0: per circuit, build_target_sets, then one
/// generate_tests per heuristic, then the coverage of each test set.
class Generation final : public Workload {
 public:
  Generation(const Options& o, std::vector<std::string> names,
             std::vector<CompactionHeuristic> heuristics, bool enriched)
      : seed_(o.seed),
        names_(std::move(names)),
        heuristics_(std::move(heuristics)),
        enriched_(enriched) {
    cfg_.n_p = 4000;  // the table benches' default scale
    cfg_.n_p0 = 300;
  }

  double setup() override { return materialize(names_, circuits_); }

  double pass(Run& run) override {
    const bool first = run.jobs.empty();  // outputs are recorded once per run
    double timed = 0;
    for (std::size_t ci = 0; ci < circuits_.size(); ++ci) {
      const Circuit& c = circuits_[ci];
      struct Out {
        GenerationResult gen;
        Coverage cov;
      };
      std::vector<Out> outs;
      const auto t0 = Clock::now();
      TargetSets ts;
      {
        const LayerCall call(run, "enrich.targets_s", "enrich.build_target_sets");
        ts = build_target_sets(*c.nl, cfg_);
      }
      for (const CompactionHeuristic h : heuristics_) {
        GeneratorConfig g;
        g.heuristic = h;
        g.seed = derive_seed(seed_, ci);
        Out out;
        {
          const LayerCall call(run, "atpg.generate_s", "atpg.generate_tests");
          out.gen = generate_tests(*c.nl, ts.p0,
                                   enriched_ ? std::span<const TargetFault>(ts.p1)
                                             : std::span<const TargetFault>(),
                                   g);
        }
        out.cov = coverage(run, c, out.gen.tests, ts.p0, ts.p1);
        outs.push_back(std::move(out));
      }
      const double job_s = seconds_since(t0);
      timed += job_s;

      bool ok = true;
      tally_targets(run, ts.screen, ts.p0.size(), ts.p1.size());
      for (std::size_t k = 0; k < outs.size(); ++k) {
        const Out& out = outs[k];
        ok = ok && generation_ok(out.gen, out.cov, enriched_);
        tally_generation(run, out.gen.stats);

        store::Hasher64 h;
        h.update_u64(store::digest(std::span<const TwoPatternTest>(out.gen.tests)));
        fold_flags(h, out.gen.detected_p0);
        fold_flags(h, out.cov.p1);
        const std::string label =
            c.name + "/" + heuristic_name(heuristics_[k]);
        ok = digest_repeats(digests_, ci * heuristics_.size() + k, label,
                            h.digest()) && ok;
        if (first) {
          std::size_t p0_det = 0;
          for (std::size_t f = 0; f < out.cov.p0.fault_count(); ++f) {
            if (out.cov.p0.any(f)) ++p0_det;
          }
          run.test_count += static_cast<double>(out.gen.tests.size());
          run.p0_detected += static_cast<double>(p0_det);
          run.p0_total += static_cast<double>(ts.p0.size());
          run.union_detected += static_cast<double>(p0_det + count_true(out.cov.p1));
          run.union_total += static_cast<double>(ts.p_total());
        }
      }
      run.checked(ok);
    }
    run.jobs.push_back({timed * 1e3, Run::Job::Batch});
    return timed;
  }

 private:
  std::uint64_t seed_;
  std::vector<std::string> names_;
  std::vector<CompactionHeuristic> heuristics_;
  bool enriched_;
  TargetSetConfig cfg_;
  std::vector<Circuit> circuits_;
  std::vector<std::uint64_t> digests_;
};

/// A seeded random two-pattern test set, drawn as the repo's tests and
/// pdf_check draw theirs: both patterns uniform and independent.
std::vector<TwoPatternTest> random_tests(std::size_t inputs, std::size_t count,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TwoPatternTest> tests;
  tests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tests.push_back(testutil::random_two_pattern_test(rng, inputs));
  }
  return tests;
}

/// grade_random: per circuit, enumerate -> expand -> screen -> P0/P1 split
/// called directly, then the detection matrix of a fixed random test set
/// against P0 u P1, then its coverage.
class GradeRandom final : public Workload {
 public:
  static constexpr std::size_t kTests = 65536;
  static constexpr std::size_t kScalarSample = 1024;  // tests re-simulated

  explicit GradeRandom(const Options& o)
      : names_{"s5378r_like", "s9234r_like", "s13207_like"} {
    cfg_.n_p = 10000;  // paper scale
    cfg_.n_p0 = 1000;
    for (std::size_t ci = 0; ci < names_.size(); ++ci) {
      const Netlist nl = benchmark_circuit(names_[ci]);
      tests_.push_back(random_tests(nl.inputs().size(), kTests,
                                    derive_seed(o.seed, 100 + ci)));
    }
  }

  double setup() override { return materialize(names_, circuits_); }

  bool warm_up() const override { return true; }

  double pass(Run& run) override {
    const bool first = run.jobs.empty();  // outputs are recorded once per run
    double timed = 0;
    for (std::size_t ci = 0; ci < circuits_.size(); ++ci) {
      const Circuit& c = circuits_[ci];
      const std::vector<TwoPatternTest>& tests = tests_[ci];
      const auto t0 = Clock::now();

      EnumerationResult paths;
      std::vector<TargetFault> faults;  // P0 then P1 (length-descending)
      ScreenStats screen;
      std::size_t n_p0 = 0;
      {
        const LayerCall targets(run, "enrich.targets_s", "enrich.target_sets");
        {
          // Timed by the library's own paths.enumerate timer.
          const LayerCall call(run, nullptr, "paths.enumerate_longest_paths");
          EnumerationConfig ecfg = cfg_.enumeration;
          ecfg.max_faults = cfg_.n_p;
          ecfg.faults_per_path = 2;
          paths = enumerate_longest_paths(LineDelayModel(*c.nl), ecfg);
        }
        std::vector<PathDelayFault> expanded;
        {
          const LayerCall call(run, nullptr, "faults.faults_for_paths");
          expanded = faults_for_paths(paths.paths);
        }
        {
          const LayerCall call(run, "faults.screen_s", "faults.screen_faults");
          faults = screen_faults(*c.nl, std::move(expanded), &screen,
                                 cfg_.sensitization);
        }
        const LayerCall call(run, nullptr, "enrich.split_targets");
        std::vector<int> lengths;
        lengths.reserve(faults.size());
        for (const auto& tf : faults) lengths.push_back(tf.fault.length);
        const LengthProfile profile(lengths);
        if (!profile.empty()) {
          const int cutoff = profile.buckets()[profile.select_i0(cfg_.n_p0)].length;
          n_p0 = static_cast<std::size_t>(std::count_if(
              faults.begin(), faults.end(),
              [&](const TargetFault& tf) { return tf.fault.length >= cutoff; }));
        }
      }
      DetectionMatrix matrix;
      std::size_t p0_det = 0, p1_det = 0;
      {
        const LayerCall call(run, "enrich.coverage_s", "enrich.coverage");
        {
          const LayerCall sim(run, "faultsim.matrix_s", "faultsim.detection_matrix");
          matrix = c.sim->detection_matrix(tests, faults);
        }
        for (std::size_t f = 0; f < faults.size(); ++f) {
          if (matrix.any(f)) ++(f < n_p0 ? p0_det : p1_det);
        }
      }
      const double job_s = seconds_since(t0);
      timed += job_s;

      run.tally["faultsim.cells"] +=
          static_cast<double>(tests.size() * faults.size());
      tally_targets(run, screen, n_p0, faults.size() - n_p0);

      const std::span<const TargetFault> all(faults);
      bool ok = true;
      if (digests_.size() <= ci) {  // once per process; later passes repeat
        ok = split_matches(c, all.first(n_p0), all.subspan(n_p0)) &&
             scalar_agrees(c, tests, all, matrix);
      }
      if (first) {
        run.test_count += static_cast<double>(tests.size());
        run.p0_detected += static_cast<double>(p0_det);
        run.p0_total += static_cast<double>(n_p0);
        run.union_detected += static_cast<double>(p0_det + p1_det);
        run.union_total += static_cast<double>(faults.size());
      }
      const std::span<const std::uint64_t> words = matrix.words();
      store::Hasher64 h;
      h.update_u64(store::digest(all));
      h.update(words.data(), words.size_bytes());
      ok = digest_repeats(digests_, ci, c.name, h.digest()) && ok;
      run.checked(ok);
    }
    run.jobs.push_back({timed * 1e3, Run::Job::Batch});
    return timed;
  }

 private:
  /// The directly timed pipeline splits exactly like build_target_sets.
  bool split_matches(const Circuit& c, std::span<const TargetFault> p0,
                     std::span<const TargetFault> p1) const {
    const TargetSets ts = build_target_sets(*c.nl, cfg_);
    return store::digest(p0) == store::digest(std::span<const TargetFault>(ts.p0)) &&
           store::digest(p1) == store::digest(std::span<const TargetFault>(ts.p1));
  }

  /// A fixed subsample of the tests re-simulated on the scalar backend gives
  /// the same matrix columns. The subsample is the first and the last
  /// kScalarSample / 2 tests: contiguous runs, so every lane position of a
  /// packed word (up to kScalarSample / 2 lanes) is compared, at both ends of
  /// the batch.
  static bool scalar_agrees(const Circuit& c,
                            std::span<const TwoPatternTest> tests,
                            std::span<const TargetFault> faults,
                            const DetectionMatrix& matrix) {
    std::vector<std::size_t> columns;
    for (std::size_t i = 0; i < kScalarSample / 2; ++i) {
      columns.push_back(i);
      columns.push_back(tests.size() - kScalarSample / 2 + i);
    }
    std::vector<TwoPatternTest> sample;
    for (const std::size_t t : columns) sample.push_back(tests[t]);
    const BatchSimulator scalar(*c.nl, &sim::scalar_backend());
    const DetectionMatrix ref = scalar.detection_matrix(sample, faults);
    for (std::size_t f = 0; f < faults.size(); ++f) {
      for (std::size_t i = 0; i < columns.size(); ++i) {
        if (ref.bit(f, i) != matrix.bit(f, columns[i])) return false;
      }
    }
    return true;
  }

  std::vector<std::string> names_;
  TargetSetConfig cfg_;
  std::vector<std::vector<TwoPatternTest>> tests_;
  std::vector<Circuit> circuits_;
  std::vector<std::uint64_t> digests_;
};

}  // namespace

std::unique_ptr<Workload> make_enrich_p0p1(const Options& o) {
  return std::make_unique<Generation>(
      o, std::vector<std::string>{"s641_like", "s1196_like", "b04_like"},
      std::vector<CompactionHeuristic>{CompactionHeuristic::Value}, true);
}

std::unique_ptr<Workload> make_basic_p0(const Options& o) {
  return std::make_unique<Generation>(
      o, table_circuits(),
      std::vector<CompactionHeuristic>{CompactionHeuristic::None,
                                       CompactionHeuristic::Length},
      false);
}

std::unique_ptr<Workload> make_grade_random(const Options& o) {
  return std::make_unique<GradeRandom>(o);
}

}  // namespace perfbench
