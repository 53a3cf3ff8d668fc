#include "common/specparse.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace laacad::specparse {

void fail(int line, const std::string& what) {
  throw std::runtime_error("line " + std::to_string(line) + ": " + what);
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream ss(line);
  std::string tok;
  while (ss >> tok) {
    if (tok[0] == '#') break;  // trailing comment
    out.push_back(tok);
  }
  return out;
}

double parse_double(const std::string& s, int line, const std::string& key) {
  // strtod, not std::stod: stod throws on any ERANGE, which glibc also
  // raises for a subnormal result — yet subnormals are exact doubles that
  // JsonWriter::number_to_string prints, and every printed value must parse
  // back. Only overflow and underflow to zero stay errors.
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  const bool out_of_range = errno == ERANGE && (v == 0.0 || std::isinf(v));
  if (end == s.c_str() || end != s.c_str() + s.size() || out_of_range)
    fail(line, "'" + key + "' expects a number, got '" + s + "'");
  return v;
}

int parse_int(const std::string& s, int line, const std::string& key) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    fail(line, "'" + key + "' expects an integer, got '" + s + "'");
  }
}

std::uint64_t parse_uint64(const std::string& s, int line,
                           const std::string& key) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
    return static_cast<std::uint64_t>(v);
  } catch (const std::exception&) {
    fail(line,
         "'" + key + "' expects an unsigned integer, got '" + s + "'");
  }
}

bool parse_bool(const std::string& s, int line, const std::string& key) {
  if (s == "1" || s == "true" || s == "yes") return true;
  if (s == "0" || s == "false" || s == "no") return false;
  fail(line, "'" + key + "' expects a boolean, got '" + s + "'");
}

std::optional<long long> parse_flag_int(const char* v, long long lo,
                                        long long hi) {
  if (v == nullptr) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || value < lo || value > hi)
    return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_flag_uint64(const char* v) {
  if (v == nullptr || !std::isdigit(static_cast<unsigned char>(*v)))
    return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(v, &end, 10);
  if (*end != '\0' || errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

std::optional<double> parse_flag_double(const char* v) {
  if (v == nullptr) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(v, &end);
  if (end == v || *end != '\0' || !std::isfinite(value) ||
      (errno == ERANGE && value == 0.0))
    return std::nullopt;
  return value;
}

}  // namespace laacad::specparse
