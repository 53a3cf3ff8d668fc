// Minimal field scanner for *flat* single-line JSON objects — the shapes
// this codebase emits itself (serve protocol messages, obs heartbeats):
// one top-level object, string/number/bool values, no nesting relied upon.
// Not a general JSON parser; `get_*` locates `"key":` at top level (escaped
// quotes inside string bodies are skipped, so key matches never land inside
// a value) and parses the value that follows. serve/protocol reads requests
// with it, and clients and tests read responses and heartbeats with it, so
// both ends of every line format agree on one scanner.
#pragma once

#include <string>
#include <string_view>

namespace laacad::flatjson {

/// Offset of the value of top-level `"key":`, or npos when absent.
std::size_t value_offset(std::string_view line, std::string_view key);

/// Read a string value; handles \n \t \r and pass-through escapes.
bool get_string(std::string_view line, std::string_view key, std::string* out);

/// Read a number value; JSON null parses as NaN (the JsonWriter convention).
bool get_number(std::string_view line, std::string_view key, double* out);

/// Read a bool value (true/false literals).
bool get_bool(std::string_view line, std::string_view key, bool* out);

/// Extract the raw JSON text of a top-level value — scalars as written,
/// strings including their quotes (escapes untouched), and nested
/// objects/arrays as the full balanced {...}/[...] slice (brace matching
/// skips string bodies, so escaped quotes and braces inside values cannot
/// terminate the scan early). This is how a caller lifts a nested subtree
/// (a histogram, a stats breakdown) out of a response line for re-embedding
/// or further scanning. Returns false when the key is absent or the value
/// is unterminated.
bool get_raw(std::string_view line, std::string_view key, std::string* out);

}  // namespace laacad::flatjson
