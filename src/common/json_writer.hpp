// Minimal streaming JSON writer — no external dependency, no DOM. The
// scenario engine (and any bench that wants machine-readable output) emits
// BENCH_*.json metric files through this; the output is deterministic:
// numbers are printed with the shortest representation that round-trips
// exactly, so two runs that compute bit-identical doubles serialize to
// byte-identical files.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace laacad {

/// Emits one JSON document to an ostream. Structure is driven by the caller
/// (begin/end object/array, key, value); commas and indentation are managed
/// internally. Misuse (value without key inside an object, unbalanced ends)
/// trips an assertion-style std::logic_error rather than silently emitting
/// invalid JSON.
class JsonWriter {
 public:
  /// `indent` spaces per nesting level; 0 writes compact single-line JSON.
  explicit JsonWriter(std::ostream& out, int indent = 2);

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit an object key; the next begin_*/value call supplies its value.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v);  ///< disambiguates from bool overload
  JsonWriter& value(double v);       ///< NaN/Inf serialize as null
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Splice a pre-serialized JSON value verbatim (e.g. a sub-object lifted
  /// from another document with flatjson::get_raw). The caller vouches that
  /// `json` is one complete valid value; it is emitted as-is, so a compact
  /// fragment stays compact even inside an indented document.
  JsonWriter& raw_value(std::string_view json);

  /// Convenience: key + scalar value in one call.
  template <typename T>
  JsonWriter& kv(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  /// Shortest decimal representation of `v` that parses back to exactly the
  /// same double ("1.5" rather than "1.5000000000000000"); NaN/Inf yield
  /// "null". The bytes are those of `%.{P}g` at the smallest round-tripping
  /// precision P (integral values below 9e15 as integers, -0.0 as "0"),
  /// pinned against that printf search by tests/test_json_writer.cpp.
  /// value(double) writes the same bytes without allocating. Exposed for
  /// tests and for callers formatting outside a writer.
  static std::string number_to_string(double v);

 private:
  enum class Scope { kObject, kArray };

  void before_value();  ///< comma/newline/indent bookkeeping, key check
  void newline_indent();
  void write_string(std::string_view s);  ///< quoted, escaped only if needed

  std::ostream& out_;
  int indent_;
  std::vector<Scope> stack_;
  bool first_in_scope_ = true;
  bool key_pending_ = false;
  bool done_ = false;
};

/// JSON string escaping (quotes not included): ", \, and control characters
/// become their escape sequences; everything else is passed through (UTF-8
/// bytes are valid JSON string bytes).
std::string json_escape(std::string_view s);

}  // namespace laacad
