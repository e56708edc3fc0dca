#include "gen/registry.hpp"

#include <functional>
#include <map>
#include <stdexcept>

#include "gen/random_circuit.hpp"
#include "gen/structured.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/combinational.hpp"

namespace pdf {
namespace {

const char kC17Bench[] = R"(# c17 (ISCAS-85), the canonical five-input NAND example
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)";

const char kS27Bench[] = R"(# s27 (ISCAS-89) — the circuit of the paper's Figure 1
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
)";

struct RegistryEntry {
  BenchmarkInfo info;
  std::function<Netlist()> make;
};

Netlist make_s27() {
  const Netlist seq = parse_bench_string(kS27Bench, "s27");
  return extract_combinational(seq);
}

std::function<Netlist()> random_maker(RandomCircuitConfig cfg) {
  return [cfg]() { return generate_random_circuit(cfg); };
}

const std::vector<RegistryEntry>& registry() {
  static const std::vector<RegistryEntry> entries = [] {
    std::vector<RegistryEntry> r;
    r.push_back({{"s27", "s27", "exact ISCAS-89 s27 combinational core"},
                 make_s27});

    auto add_like = [&r](const std::string& name, const std::string& paper,
                         RandomCircuitConfig cfg, const std::string& desc) {
      cfg.name = name;
      r.push_back({{name, paper, desc}, random_maker(cfg)});
    };

    // Stand-ins for the paper's Tables 3-7 circuits; parameters approximate
    // the counterpart's combinational-input count, gate count and depth.
    add_like("s641_like", "s641",
             {.seed = 641, .n_inputs = 54, .n_gates = 380, .levels = 28,
              .max_fanin = 3, .chain_bias = 0.8, .unary_fraction = 0.18,
              .n_outputs = 24},
             "deep, skinny control/datapath mix");
    add_like("s953_like", "s953",
             {.seed = 953, .n_inputs = 45, .n_gates = 400, .levels = 16,
              .max_fanin = 3, .chain_bias = 0.72, .unary_fraction = 0.12,
              .n_outputs = 23},
             "mid-depth controller");
    add_like("s1196_like", "s1196",
             {.seed = 1196, .n_inputs = 32, .n_gates = 520, .levels = 20,
              .max_fanin = 4, .chain_bias = 0.7, .unary_fraction = 0.12,
              .n_outputs = 14},
             "wide cone logic, many reconvergences");
    add_like("s1423_like", "s1423",
             {.seed = 1423, .n_inputs = 60, .n_gates = 500, .levels = 32,
              .max_fanin = 3, .chain_bias = 0.82, .unary_fraction = 0.15,
              .n_outputs = 5},
             "deepest ISCAS-89 profile (Table 2 circuit)");
    add_like("s1488_like", "s1488",
             {.seed = 1488, .n_inputs = 14, .n_gates = 550, .levels = 14,
              .max_fanin = 4, .chain_bias = 0.65, .unary_fraction = 0.1,
              .n_outputs = 19},
             "shallow, dense FSM logic");
    add_like("b03_like", "b03",
             {.seed = 303, .n_inputs = 34, .n_gates = 200, .levels = 16,
              .max_fanin = 3, .chain_bias = 0.6, .unary_fraction = 0.12,
              .n_outputs = 30},
             "small ITC-99 controller");
    add_like("b04_like", "b04",
             {.seed = 304, .n_inputs = 70, .n_gates = 480, .levels = 16,
              .max_fanin = 3, .chain_bias = 0.7, .unary_fraction = 0.12,
              .n_outputs = 66},
             "ITC-99 datapath block");
    add_like("b09_like", "b09",
             {.seed = 309, .n_inputs = 29, .n_gates = 170, .levels = 18,
              .max_fanin = 3, .chain_bias = 0.65, .unary_fraction = 0.12,
              .n_outputs = 28},
             "small serial converter");
    // Wider ISCAS-89 family coverage (not used by the paper's tables, but
    // handy for sweeps and user experiments).
    add_like("s298_like", "s298",
             {.seed = 298, .n_inputs = 17, .n_gates = 120, .levels = 9,
              .max_fanin = 3, .chain_bias = 0.7, .unary_fraction = 0.12,
              .n_outputs = 20},
             "small FSM");
    add_like("s344_like", "s344",
             {.seed = 344, .n_inputs = 24, .n_gates = 160, .levels = 20,
              .max_fanin = 3, .chain_bias = 0.75, .unary_fraction = 0.14,
              .n_outputs = 26},
             "multiplier control");
    add_like("s386_like", "s386",
             {.seed = 386, .n_inputs = 13, .n_gates = 160, .levels = 11,
              .max_fanin = 4, .chain_bias = 0.68, .unary_fraction = 0.1,
              .n_outputs = 13},
             "dense FSM");
    add_like("s510_like", "s510",
             {.seed = 510, .n_inputs = 25, .n_gates = 210, .levels = 12,
              .max_fanin = 3, .chain_bias = 0.7, .unary_fraction = 0.12,
              .n_outputs = 13},
             "controller");
    add_like("s820_like", "s820",
             {.seed = 820, .n_inputs = 23, .n_gates = 290, .levels = 10,
              .max_fanin = 4, .chain_bias = 0.68, .unary_fraction = 0.1,
              .n_outputs = 24},
             "wide PLA-ish FSM");
    add_like("s1238_like", "s1238",
             {.seed = 1238, .n_inputs = 32, .n_gates = 500, .levels = 22,
              .max_fanin = 4, .chain_bias = 0.7, .unary_fraction = 0.12,
              .n_outputs = 14},
             "s1196 with inverted logic");
    add_like("s5378_like", "s5378",
             {.seed = 53780, .n_inputs = 120, .n_gates = 900, .levels = 24,
              .max_fanin = 3, .chain_bias = 0.72, .unary_fraction = 0.14,
              .n_outputs = 49},
             "large controller (scaled)");
    add_like("s13207_like", "s13207",
             {.seed = 13207, .n_inputs = 150, .n_gates = 1100, .levels = 26,
              .max_fanin = 3, .chain_bias = 0.74, .unary_fraction = 0.14,
              .n_outputs = 121},
             "very large design (scaled)");

    add_like("s1423r_like", "s1423*",
             {.seed = 11423, .n_inputs = 60, .n_gates = 460, .levels = 26,
              .max_fanin = 3, .chain_bias = 0.78, .unary_fraction = 0.14,
              .n_outputs = 5},
             "resynthesized-for-testability s1423 analogue");
    add_like("s5378r_like", "s5378*",
             {.seed = 5378, .n_inputs = 90, .n_gates = 700, .levels = 22,
              .max_fanin = 3, .chain_bias = 0.72, .unary_fraction = 0.15,
              .n_outputs = 49},
             "resynthesized s5378 analogue (scaled)");
    add_like("s9234r_like", "s9234*",
             {.seed = 9234, .n_inputs = 100, .n_gates = 800, .levels = 24,
              .max_fanin = 3, .chain_bias = 0.72, .unary_fraction = 0.15,
              .n_outputs = 39},
             "resynthesized s9234 analogue (scaled)");

    r.push_back({{"c17", "c17", "exact ISCAS-85 c17"}, [] {
                   return extract_combinational(
                       parse_bench_string(kC17Bench, "c17"));
                 }});
    r.push_back({{"rca16", "", "16-bit ripple-carry adder"},
                 [] { return ripple_carry_adder(16, "rca16"); }});
    r.push_back({{"mult8", "", "8x8 array multiplier"},
                 [] { return array_multiplier(8, "mult8"); }});
    r.push_back({{"barrel16x4", "", "16-wide 4-stage mux barrel shifter"},
                 [] { return mux_barrel_shifter(16, 4, "barrel16x4"); }});
    r.push_back({{"skipchain48", "", "48-stage carry-skip style chain"},
                 [] { return carry_skip_chain(48, "skipchain48"); }});
    return r;
  }();
  return entries;
}

}  // namespace

std::vector<BenchmarkInfo> benchmark_catalog() {
  std::vector<BenchmarkInfo> out;
  for (const auto& e : registry()) out.push_back(e.info);
  return out;
}

bool has_benchmark(const std::string& name) {
  for (const auto& e : registry()) {
    if (e.info.name == name) return true;
  }
  return false;
}

Netlist benchmark_circuit(const std::string& name) {
  for (const auto& e : registry()) {
    if (e.info.name == name) return e.make();
  }
  throw std::invalid_argument("unknown benchmark: " + name);
}

const std::string& s27_bench_text() {
  static const std::string text = kS27Bench;
  return text;
}

std::vector<std::string> table_circuits() {
  return {"s641_like", "s953_like", "s1196_like", "s1423_like",
          "s1488_like", "b03_like",  "b04_like",   "b09_like"};
}

std::vector<std::string> table6_extra_circuits() {
  return {"s1423r_like", "s5378r_like", "s9234r_like"};
}

}  // namespace pdf
