// Typed-error surface: malformed .bench/netlist input and invalid configs
// must throw pdf::ParseError / pdf::ConfigError (catchable, attributable to
// a source line) — never abort, never exit, never leak a bare logic_error
// out of the parsing layer. These are the negative paths the pdf_serve
// daemon turns into "parse_error"/"config_error" responses.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "atpg/test_io.hpp"
#include "base/error.hpp"
#include "base/number.hpp"
#include "gen/registry.hpp"
#include "netlist/bench_io.hpp"
#include "paths/enumerate.hpp"
#include "paths/path.hpp"
#include "serve/protocol.hpp"

namespace pdf {
namespace {

/// Runs `fn`, expecting a ParseError; returns it for inspection.
template <typename Fn>
ParseError capture_parse_error(Fn&& fn) {
  try {
    fn();
  } catch (const ParseError& e) {
    return e;
  }
  ADD_FAILURE() << "expected ParseError";
  return ParseError("", 0, "no error thrown");
}

TEST(TypedErrorsTest, HierarchyKeepsLegacyCatchSitesWorking) {
  // ParseError is-a runtime_error and ConfigError is-a invalid_argument, so
  // every pre-existing catch/EXPECT_THROW on the standard types still fires.
  static_assert(std::is_base_of_v<std::runtime_error, ParseError>);
  static_assert(std::is_base_of_v<std::invalid_argument, ConfigError>);
  EXPECT_THROW(parse_bench_string("garbage", "t"), std::runtime_error);
  EXPECT_THROW(
      enumerate_longest_paths(LineDelayModel(benchmark_circuit("s27")),
                              EnumerationConfig{.max_faults = 0}),
      std::invalid_argument);
}

TEST(TypedErrorsTest, BenchGarbageLineIsAttributed) {
  const auto e = capture_parse_error(
      [] { parse_bench_string("INPUT(a)\nwhat is this\n", "mychip"); });
  EXPECT_EQ(e.source(), "mychip");
  EXPECT_EQ(e.line(), 2);
  EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
}

TEST(TypedErrorsTest, BenchUnknownGateType) {
  const auto e = capture_parse_error([] {
    parse_bench_string("INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n", "t");
  });
  EXPECT_EQ(e.line(), 3);
  EXPECT_NE(std::string(e.what()).find("unknown gate type"),
            std::string::npos);
}

TEST(TypedErrorsTest, BenchUndefinedOperand) {
  const auto e = capture_parse_error([] {
    parse_bench_string("INPUT(a)\nOUTPUT(z)\nz = AND(a, ghost)\n", "t");
  });
  EXPECT_EQ(e.line(), 3);
  EXPECT_NE(std::string(e.what()).find("undefined operand ghost"),
            std::string::npos);
}

TEST(TypedErrorsTest, BenchDuplicateDefinition) {
  const auto e = capture_parse_error([] {
    parse_bench_string(
        "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\nz = OR(a, b)\n", "t");
  });
  EXPECT_EQ(e.line(), 5);
}

TEST(TypedErrorsTest, BenchOutputOfUndefinedSignal) {
  const auto e = capture_parse_error([] {
    parse_bench_string("INPUT(a)\nOUTPUT(nope)\nz = NOT(a)\n", "t");
  });
  EXPECT_EQ(e.line(), 2);  // the OUTPUT line, not end-of-file
  EXPECT_NE(std::string(e.what()).find("OUTPUT(nope)"), std::string::npos);
}

TEST(TypedErrorsTest, BenchStructuralErrorsSurfaceAsLineZero) {
  // A combinational cycle is a whole-netlist property; finalize() reports it
  // and the parser wraps it as a ParseError at line 0.
  const auto e = capture_parse_error([] {
    parse_bench_string(
        "INPUT(a)\nOUTPUT(z)\nu = AND(a, v)\nv = AND(a, u)\nz = NOT(u)\n",
        "t");
  });
  EXPECT_EQ(e.line(), 0);
}

TEST(TypedErrorsTest, BenchUnopenableFile) {
  const auto e = capture_parse_error(
      [] { parse_bench_file("/nonexistent/dir/missing.bench"); });
  EXPECT_EQ(e.line(), 0);
  EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
}

TEST(TypedErrorsTest, TestFileErrorsAreAttributed) {
  const Netlist nl = benchmark_circuit("s27");
  std::istringstream bad("circuit s27\ninputs wrong names here\n");
  const auto e =
      capture_parse_error([&] { read_tests(bad, nl); });
  EXPECT_EQ(e.source(), "tests");
  EXPECT_EQ(e.line(), 2);
}

TEST(TypedErrorsTest, EnumerationConfigValidation) {
  const Netlist nl = benchmark_circuit("s27");
  const LineDelayModel dm(nl);
  EXPECT_THROW(
      enumerate_longest_paths(dm, EnumerationConfig{.max_faults = 0}),
      ConfigError);
  EnumerationConfig bad_fpp;
  bad_fpp.faults_per_path = 0;
  EXPECT_THROW(enumerate_longest_paths(dm, bad_fpp), ConfigError);
}

TEST(TypedErrorsTest, DelayModelWeightValidation) {
  const Netlist nl = benchmark_circuit("s27");
  EXPECT_THROW(LineDelayModel(nl, std::vector<int>(3, 1)), ConfigError);
  std::vector<int> negative(nl.node_count(), 1);
  negative[0] = -2;
  EXPECT_THROW(LineDelayModel(nl, std::move(negative)), ConfigError);
}

TEST(TypedErrorsTest, ServeClassifierMapsTheTaxonomy) {
  const auto classify = [](auto&& thrower) {
    try {
      thrower();
    } catch (...) {
      return serve::classify_error(std::current_exception());
    }
    return serve::ErrorInfo{};
  };

  const auto parse = classify(
      [] { parse_bench_string("INPUT(a)\nbogus\n", "t"); });
  EXPECT_EQ(parse.kind, "parse_error");
  EXPECT_EQ(parse.line, 2);

  const auto config =
      classify([] { throw ConfigError("np0 must be <= np"); });
  EXPECT_EQ(config.kind, "config_error");

  const auto legacy =
      classify([] { throw std::invalid_argument("old-style rejection"); });
  EXPECT_EQ(legacy.kind, "config_error");

  const auto internal = classify([] { throw std::logic_error("bug"); });
  EXPECT_EQ(internal.kind, "internal");
}

TEST(CliNumbers, ParseDecimalTakesOnlyWholeUnsignedDecimals) {
  EXPECT_EQ(parse_decimal("0"), 0u);
  EXPECT_EQ(parse_decimal("4000"), 4000u);
  EXPECT_EQ(parse_decimal("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "abc", "-1", "+1", " 1", "1 ", "4k", "1.5",
                          "0x10", "18446744073709551616"}) {
    EXPECT_FALSE(parse_decimal(bad).has_value()) << '"' << bad << '"';
  }
}

}  // namespace
}  // namespace pdf
