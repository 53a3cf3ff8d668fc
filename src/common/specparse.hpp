// Shared primitives for the line-oriented spec formats (scenarios/*.scn,
// campaigns/*.cmp): whitespace tokenization with '#' comments, and strict
// scalar parsing that reports "line N: ..." errors. Both parsers must stay
// behaviorally identical — one definition keeps them that way.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace laacad::specparse {

/// Throw std::runtime_error("line N: <what>").
[[noreturn]] void fail(int line, const std::string& what);

/// Whitespace-split `line`, dropping everything from the first token that
/// starts with '#' (trailing comment) onward.
std::vector<std::string> tokenize(const std::string& line);

/// Strict scalar parsers: the whole token must consume, or fail() with a
/// message naming `key`.
double parse_double(const std::string& s, int line, const std::string& key);
int parse_int(const std::string& s, int line, const std::string& key);
std::uint64_t parse_uint64(const std::string& s, int line,
                           const std::string& key);
bool parse_bool(const std::string& s, int line, const std::string& key);

/// Strict command-line integer: the whole of `v` must be one base-10
/// integer in [lo, hi]. "2x", "" and out-of-range values (4294967297 is
/// not wrapped to 1) give nullopt, which every tool treats as a usage error.
/// So does a null `v` (a missing value), here and in the parsers below.
std::optional<long long> parse_flag_int(const char* v, long long lo,
                                        long long hi);

/// Strict command-line unsigned 64-bit integer: base-10 digits only, so
/// "-1" is refused rather than wrapped, and so are "7abc" and 2^64.
std::optional<std::uint64_t> parse_flag_uint64(const char* v);

/// Strict command-line number: the whole of `v` must parse as one finite
/// double. "0.5x", "nan", "inf" and overflowing or underflowing-to-zero
/// values give nullopt.
std::optional<double> parse_flag_double(const char* v);

}  // namespace laacad::specparse
