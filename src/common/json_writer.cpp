#include "common/json_writer.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace laacad {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// number_to_string output is at most 24 bytes ("-1.2345678901234567e-308");
/// the rest is headroom.
constexpr std::size_t kNumberChars = 32;

/// True when `v`'s rounding interval is asymmetric: a normal double whose
/// significand is an exact power of two has a predecessor half as far away
/// as its successor. Only there can the shortest round-trip digits differ
/// from the correctly rounded digits at the same precision.
bool asymmetric_interval(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const std::uint64_t mantissa = bits & ((std::uint64_t{1} << 52) - 1);
  const std::uint64_t exponent = (bits >> 52) & 0x7ff;
  return mantissa == 0 && exponent > 1;
}

/// Writes the bytes of `%.{P}g` for the smallest P whose output parses back
/// to `v` — the format this writer has always emitted — into `buf` and
/// returns the length. Integral values below 9e15 print as integers, -0.0
/// as "0", NaN/Inf as "null".
///
/// P is never below the digit count D of the shortest round-trip form, and
/// on a symmetric rounding interval the correctly rounded D-digit decimal is
/// itself the shortest form, so P == D and std::to_chars' shortest output
/// carries exactly %g's digits. Only an asymmetric interval needs the
/// fixed-precision search, starting at D.
std::size_t format_number(double v, char* buf) {
  if (!std::isfinite(v)) {
    std::memcpy(buf, "null", 4);
    return 4;
  }
  // Integral values print as integers (300, not 3e+02) — exact and readable.
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    const auto r =
        std::to_chars(buf, buf + kNumberChars, static_cast<long long>(v));
    return static_cast<std::size_t>(r.ptr - buf);
  }

  // Scientific form "[-]d[.ddd]e±XX": the mantissa digits and exponent X.
  char sci[kNumberChars];
  const char* sci_end =
      std::to_chars(sci, sci + kNumberChars, v, std::chars_format::scientific)
          .ptr;
  const char* const mantissa = sci + (v < 0.0 ? 1 : 0);
  if (asymmetric_interval(v)) {
    const auto len = std::find(mantissa, sci_end, 'e') - mantissa;
    const int shortest = static_cast<int>(len > 1 ? len - 1 : len);
    for (int precision = shortest; precision <= 17; ++precision) {
      sci_end = std::to_chars(sci, sci + kNumberChars, v,
                              std::chars_format::scientific, precision - 1)
                    .ptr;
      double back = 0.0;
      std::from_chars(sci, sci_end, back);
      if (back == v) break;
    }
  }
  const char* const e = std::find(mantissa, sci_end, 'e');
  char digits[20];
  int n = 0;
  for (const char* p = mantissa; p != e; ++p)
    if (*p != '.') digits[n++] = *p;
  int exp10 = 0;
  std::from_chars(e + (e[1] == '+' ? 2 : 1), sci_end, exp10);

  // Neither path leaves trailing zeros: shortest digits never end in 0, and
  // a correctly rounded P-digit result ending in 0 would already have
  // round-tripped at P - 1. So the digit count n is %g's precision P.
  //
  // %g picks the exponent form when X < -4 or X >= P; to_chars' scientific
  // text is that form byte for byte (no trailing zeros, signed exponent of
  // at least two digits).
  if (exp10 < -4 || exp10 >= n)
    return static_cast<std::size_t>(
        std::copy(static_cast<const char*>(sci), sci_end, buf) - buf);
  // Fixed form with P - 1 - X decimals; X < P, so every integer digit is a
  // significant digit.
  char* out = buf;
  if (v < 0.0) *out++ = '-';
  if (exp10 < 0) {
    *out++ = '0';
    *out++ = '.';
    out = std::fill_n(out, -exp10 - 1, '0');
    out = std::copy(digits, digits + n, out);
  } else {
    out = std::copy(digits, digits + exp10 + 1, out);
    if (n > exp10 + 1) {
      *out++ = '.';
      out = std::copy(digits + exp10 + 1, digits + n, out);
    }
  }
  return static_cast<std::size_t>(out - buf);
}

bool needs_escape(std::string_view s) {
  return std::any_of(s.begin(), s.end(), [](char c) {
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
  });
}

}  // namespace

std::string JsonWriter::number_to_string(double v) {
  char buf[kNumberChars];
  return std::string(buf, format_number(v, buf));
}

JsonWriter::JsonWriter(std::ostream& out, int indent)
    : out_(out), indent_(indent) {}

void JsonWriter::newline_indent() {
  if (indent_ <= 0) return;
  out_ << '\n';
  for (std::size_t i = 0; i < stack_.size() * static_cast<std::size_t>(indent_);
       ++i)
    out_ << ' ';
}

void JsonWriter::before_value() {
  if (done_) throw std::logic_error("JsonWriter: document already complete");
  if (!stack_.empty() && stack_.back() == Scope::kObject && !key_pending_)
    throw std::logic_error("JsonWriter: value inside object requires key()");
  if (key_pending_) {
    key_pending_ = false;
    return;  // key() already wrote the separator and "key":
  }
  if (!stack_.empty()) {
    if (!first_in_scope_) out_ << ',';
    newline_indent();
  }
  first_in_scope_ = false;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (done_) throw std::logic_error("JsonWriter: document already complete");
  if (stack_.empty() || stack_.back() != Scope::kObject)
    throw std::logic_error("JsonWriter: key() outside object");
  if (key_pending_) throw std::logic_error("JsonWriter: key already pending");
  if (!first_in_scope_) out_ << ',';
  newline_indent();
  first_in_scope_ = false;
  write_string(k);
  out_.put(':');
  if (indent_ > 0) out_ << ' ';
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ << '{';
  stack_.push_back(Scope::kObject);
  first_in_scope_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != Scope::kObject || key_pending_)
    throw std::logic_error("JsonWriter: mismatched end_object()");
  const bool was_empty = first_in_scope_;
  stack_.pop_back();
  if (!was_empty) newline_indent();
  out_ << '}';
  first_in_scope_ = false;
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ << '[';
  stack_.push_back(Scope::kArray);
  first_in_scope_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Scope::kArray)
    throw std::logic_error("JsonWriter: mismatched end_array()");
  const bool was_empty = first_in_scope_;
  stack_.pop_back();
  if (!was_empty) newline_indent();
  out_ << ']';
  first_in_scope_ = false;
  if (stack_.empty()) done_ = true;
  return *this;
}

void JsonWriter::write_string(std::string_view s) {
  out_.put('"');
  if (needs_escape(s)) {
    out_ << json_escape(s);
  } else {
    out_.write(s.data(), static_cast<std::streamsize>(s.size()));
  }
  out_.put('"');
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  write_string(v);
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) {
  return value(std::string_view(v));
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  char buf[kNumberChars];
  out_.write(buf, static_cast<std::streamsize>(format_number(v, buf)));
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  out_ << v;
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  out_ << v;
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ << (v ? "true" : "false");
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::raw_value(std::string_view json) {
  before_value();
  out_ << json;
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  out_ << "null";
  if (stack_.empty()) done_ = true;
  return *this;
}

}  // namespace laacad
