#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "common/json_writer.hpp"

namespace laacad {
namespace {

std::string compact(const std::function<void(JsonWriter&)>& build) {
  std::ostringstream out;
  JsonWriter w(out, 0);
  build(w);
  return out.str();
}

TEST(JsonWriter, EmptyObjectAndArray) {
  EXPECT_EQ(compact([](JsonWriter& w) { w.begin_object().end_object(); }),
            "{}");
  EXPECT_EQ(compact([](JsonWriter& w) { w.begin_array().end_array(); }), "[]");
}

TEST(JsonWriter, ObjectWithScalars) {
  const std::string json = compact([](JsonWriter& w) {
    w.begin_object();
    w.kv("s", "hi");
    w.kv("i", 42);
    w.kv("d", 1.5);
    w.kv("b", true);
    w.key("n").null();
    w.end_object();
  });
  EXPECT_EQ(json, R"({"s":"hi","i":42,"d":1.5,"b":true,"n":null})");
}

TEST(JsonWriter, NestedStructures) {
  const std::string json = compact([](JsonWriter& w) {
    w.begin_object();
    w.key("rows").begin_array();
    w.begin_object().kv("x", 1).end_object();
    w.begin_object().kv("x", 2).end_object();
    w.end_array();
    w.end_object();
  });
  EXPECT_EQ(json, R"({"rows":[{"x":1},{"x":2}]})");
}

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  // Escaping applies to keys and values alike.
  const std::string json = compact([](JsonWriter& w) {
    w.begin_object().kv("a,b\"c", "x\ny").end_object();
  });
  EXPECT_EQ(json, "{\"a,b\\\"c\":\"x\\ny\"}");
}

TEST(JsonWriter, NumbersRoundTripShortest) {
  EXPECT_EQ(JsonWriter::number_to_string(0.0), "0");
  EXPECT_EQ(JsonWriter::number_to_string(300.0), "300");
  EXPECT_EQ(JsonWriter::number_to_string(2.0e6), "2000000");
  EXPECT_EQ(JsonWriter::number_to_string(1.5), "1.5");
  EXPECT_EQ(JsonWriter::number_to_string(-0.25), "-0.25");
  // Shortest representation that parses back to the exact double.
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(JsonWriter::number_to_string(v)), v);
  const double tiny = 1.2345678901234567e-12;
  EXPECT_EQ(std::stod(JsonWriter::number_to_string(tiny)), tiny);
}

TEST(JsonWriter, NonFiniteSerializesAsNull) {
  EXPECT_EQ(JsonWriter::number_to_string(
                std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(JsonWriter::number_to_string(
                std::numeric_limits<double>::infinity()),
            "null");
  const std::string json = compact([](JsonWriter& w) {
    w.begin_object().kv("bad", std::nan("")).end_object();
  });
  EXPECT_EQ(json, R"({"bad":null})");
}

// ------------------------------------------- formatter oracle (bytes) ----

/// The original number formatter, kept verbatim as the byte oracle: the
/// smallest `%.{P}g` precision whose output strtod parses back to `v`.
/// number_to_string must reproduce these bytes exactly — every committed
/// BENCH_*.json, manifest and event log was written by this loop.
std::string number_to_string_brute(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  // Integral values print as integers (300, not 3e+02) — exact and readable.
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  // Shortest precision that round-trips: deterministic across platforms
  // using the same IEEE doubles, and far more readable than blanket %.17g.
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// Compares both formatters on every input; reports the first few
/// mismatches with their bit patterns and returns the mismatch count.
int count_oracle_mismatches(const std::vector<double>& inputs) {
  int mismatches = 0;
  for (const double v : inputs) {
    const std::string want = number_to_string_brute(v);
    const std::string got = JsonWriter::number_to_string(v);
    if (got == want) continue;
    if (++mismatches <= 5)
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v)
                    << ": oracle '" << want << "', got '" << got << "'";
  }
  return mismatches;
}

/// 2^20 random 64-bit patterns (every exponent, sign, NaN payload), split
/// into shards so ctest runs them in parallel: the oracle costs ~15 us a
/// call on such inputs.
constexpr int kPatternShards = 8;
constexpr int kPatternsPerShard = (1 << 20) / kPatternShards;

class NumberOracleRandomBits : public testing::TestWithParam<int> {};

TEST_P(NumberOracleRandomBits, MatchesOldFormatterByteForByte) {
  std::mt19937_64 gen(0x6a736f6eULL + static_cast<std::uint64_t>(GetParam()));
  std::vector<double> inputs(kPatternsPerShard);
  for (double& v : inputs) v = std::bit_cast<double>(gen());
  EXPECT_EQ(count_oracle_mismatches(inputs), 0);
}

INSTANTIATE_TEST_SUITE_P(Shards, NumberOracleRandomBits,
                         testing::Range(0, kPatternShards));

TEST(NumberOracle, UniformCoordinatesMatch) {
  // The serving path's shape: positions, ranges and distances in a 1 km box.
  std::mt19937_64 gen(17);
  std::uniform_real_distribution<double> coord(0.0, 1000.0);
  std::vector<double> inputs(100000);
  for (double& v : inputs) v = coord(gen);
  EXPECT_EQ(count_oracle_mismatches(inputs), 0);
}

TEST(NumberOracle, PowersOfTwoAndTheirPredecessorsMatch) {
  // A power-of-two significand has an asymmetric rounding interval — the
  // one place the shortest digits can differ from %.{P}g's.
  std::vector<double> inputs;
  for (int e = -1074; e <= 1023; ++e) {
    for (const double sign : {1.0, -1.0}) {
      const double p = sign * std::ldexp(1.0, e);
      inputs.push_back(p);
      inputs.push_back(std::nextafter(p, 0.0));
    }
  }
  EXPECT_EQ(count_oracle_mismatches(inputs), 0);
}

TEST(NumberOracle, EdgeValuesMatch) {
  using limits = std::numeric_limits<double>;
  std::vector<double> inputs = {
      0.0, -0.0, 0.1, 1e-5, 1e16, 1e300, -1e300, 1e-300, -1e-300,
      limits::denorm_min(), -limits::denorm_min(), limits::min(),
      std::nextafter(limits::min(), 0.0), limits::max(), -limits::max(),
      limits::epsilon(), 0.1 + 0.2, 1.0 / 3.0, 5e-324, 2.2250738585072009e-308,
      limits::quiet_NaN(), limits::infinity(), -limits::infinity()};
  // Subnormals across the whole range of payloads.
  std::mt19937_64 gen(23);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t payload = gen() & ((std::uint64_t{1} << 52) - 1);
    inputs.push_back(std::bit_cast<double>(payload));
    inputs.push_back(-std::bit_cast<double>(payload));
  }
  // Integers (and their neighbours) around the 9e15 integral cutoff, where
  // the printer switches from %lld to %g.
  for (const double sign : {1.0, -1.0}) {
    for (int i = -1000; i <= 1000; ++i) {
      const double v = sign * (9.0e15 + i);
      inputs.push_back(v);
      inputs.push_back(std::nextafter(v, 0.0));
      inputs.push_back(std::nextafter(v, sign * limits::infinity()));
    }
  }
  // Decade boundaries, where %g flips between fixed and exponent layout.
  for (int e = -20; e <= 20; ++e) {
    const double p = std::pow(10.0, e);
    inputs.insert(inputs.end(), {p, std::nextafter(p, 0.0),
                                 std::nextafter(p, 1e308), 9.5 * p,
                                 9.999999999999999 * p, 1.25 * p});
  }
  EXPECT_EQ(count_oracle_mismatches(inputs), 0);
}

TEST(NumberOracle, WriterEmitsNumberToStringBytes) {
  const std::vector<double> inputs = {0.5, -0.0, 1e16, 123.456, 1e-7,
                                      std::nan("")};
  for (const double v : inputs) {
    const std::string json = compact([&](JsonWriter& w) { w.value(v); });
    EXPECT_EQ(json, JsonWriter::number_to_string(v));
  }
}

TEST(JsonWriter, IndentedOutputIsStable) {
  std::ostringstream out;
  JsonWriter w(out, 2);
  w.begin_object();
  w.kv("a", 1);
  w.key("b").begin_array().value(2).value(3).end_array();
  w.end_object();
  EXPECT_EQ(out.str(),
            "{\n  \"a\": 1,\n  \"b\": [\n    2,\n    3\n  ]\n}");
}

TEST(JsonWriter, MisuseThrows) {
  std::ostringstream out;
  {
    JsonWriter w(out, 0);
    w.begin_object();
    EXPECT_THROW(w.value(1), std::logic_error);  // value without key
  }
  {
    JsonWriter w(out, 0);
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::logic_error);  // key inside array
    EXPECT_THROW(w.end_object(), std::logic_error);
  }
  {
    JsonWriter w(out, 0);
    w.value(1);  // complete scalar document
    EXPECT_THROW(w.value(2), std::logic_error);
  }
}

}  // namespace
}  // namespace laacad
