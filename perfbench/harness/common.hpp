// Shared helpers of the benchmark harness: clocks, the result digest,
// percentiles and a flat JSON line writer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "wsn/network.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// FNV-1a over the bit patterns of the final deployment: node count,
/// positions and sensing ranges. Two runs agree on it only if they computed
/// bit-identical deployments.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

inline std::string network_digest(const laacad::wsn::Network& net) {
  Digest d;
  d.add(static_cast<std::uint64_t>(net.size()));
  for (int i = 0; i < net.size(); ++i) {
    d.add(net.xs()[static_cast<std::size_t>(i)]);
    d.add(net.ys()[static_cast<std::size_t>(i)]);
    d.add(net.sensing_ranges()[static_cast<std::size_t>(i)]);
  }
  return d.hex();
}

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// One JSON object written field by field (keys are trusted literals,
/// string values are escaped for quotes and backslashes only).
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double v) {
    char buf[40];
    if (std::isfinite(v)) std::snprintf(buf, sizeof buf, "%.17g", v);
    else std::snprintf(buf, sizeof buf, "null");
    return raw(key, buf);
  }
  JsonLine& integer(const std::string& key, long long v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonLine& str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c == '\n' ? ' ' : c);
    }
    return raw(key, q + "\"");
  }
  JsonLine& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"" + key + "\":" + json;
    return *this;
  }
  std::string text() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench
