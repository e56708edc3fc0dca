// Strict parsing of numeric command-line values.
//
// std::strtoull turns "abc" into 0 and "-1" into UINT64_MAX, and std::stoul
// throws on garbage, which aborts a CLI that does not catch it. The benches'
// shared options, bench_atpg and the tools parse counts, budgets and seeds
// through parse_decimal instead and answer a malformed value with usage and
// exit status 2.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace pdf {

/// `text` as a whole unsigned decimal number; nullopt when it is empty,
/// carries a sign, whitespace or any other non-digit, or exceeds UINT64_MAX.
inline std::optional<std::uint64_t> parse_decimal(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace pdf
