#include "serve/workload.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "common/specparse.hpp"
#include "scenario/spec.hpp"

namespace laacad::serve {

namespace {

using specparse::fail;
using specparse::parse_double;
using specparse::parse_int;
using specparse::parse_uint64;
using specparse::tokenize;

/// Split "key=value", failing with the line number when malformed.
std::pair<std::string, std::string> split_kv(const std::string& token,
                                             int line) {
  const auto eq = token.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size())
    fail(line, "expected key=value, got '" + token + "'");
  return {token.substr(0, eq), token.substr(eq + 1)};
}

void parse_mix(WorkloadSpec* spec, const std::vector<std::string>& tokens,
               int line) {
  spec->mix_knn = spec->mix_coverage = spec->mix_load = spec->mix_stats =
      spec->mix_health = 0;
  for (std::size_t t = 1; t < tokens.size(); ++t) {
    const auto [verb, weight_str] = split_kv(tokens[t], line);
    const int weight = parse_int(weight_str, line, "mix " + verb);
    if (weight < 0) fail(line, "mix weight must be >= 0: " + tokens[t]);
    if (verb == "knn") spec->mix_knn = weight;
    else if (verb == "coverage") spec->mix_coverage = weight;
    else if (verb == "load") spec->mix_load = weight;
    else if (verb == "stats") spec->mix_stats = weight;
    else if (verb == "health") spec->mix_health = weight;
    else fail(line, "unknown mix verb '" + verb + "'");
  }
}

void parse_churn(WorkloadSpec* spec, const std::vector<std::string>& tokens,
                 int line) {
  if (tokens.size() < 3)
    fail(line, "churn needs: churn every=N <event body>");
  const auto [key, value] = split_kv(tokens[1], line);
  if (key != "every") fail(line, "churn needs every=N first, got " + key);
  ChurnSpec c;
  c.every = parse_int(value, line, "churn every");
  if (c.every < 1) fail(line, "churn every must be >= 1");
  std::string body;
  for (std::size_t t = 2; t < tokens.size(); ++t) {
    if (t > 2) body += ' ';
    body += tokens[t];
  }
  // Validate the event vocabulary now — a bench should fail at parse time,
  // not after the daemon rejects request #250.
  try {
    (void)scenario::parse_event_body(body);
  } catch (const std::exception& e) {
    fail(line, std::string("churn body: ") + e.what());
  }
  c.body = std::move(body);
  spec->churn.push_back(std::move(c));
}

}  // namespace

void check_workload(const WorkloadSpec& spec) {
  if (spec.requests < 1)
    throw std::runtime_error("workload: requests must be >= 1");
  if (spec.rate < 0.0)
    throw std::runtime_error("workload: rate must be >= 0");
  if (spec.connections < 1)
    throw std::runtime_error("workload: connections must be >= 1");
}

WorkloadSpec parse_workload_string(const std::string& text) {
  WorkloadSpec spec;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::vector<std::string> tokens = tokenize(raw);
    if (tokens.empty()) continue;
    const std::string& key = tokens[0];
    if (key == "mix") {
      parse_mix(&spec, tokens, line_no);
      continue;
    }
    if (key == "churn") {
      parse_churn(&spec, tokens, line_no);
      continue;
    }
    if (tokens.size() != 2)
      fail(line_no, "expected '" + key + " <value>'");
    const std::string& value = tokens[1];
    if (key == "name") spec.name = value;
    else if (key == "requests") spec.requests = parse_int(value, line_no, key);
    else if (key == "rate") spec.rate = parse_double(value, line_no, key);
    else if (key == "connections")
      spec.connections = parse_int(value, line_no, key);
    else if (key == "seed") spec.seed = parse_uint64(value, line_no, key);
    else if (key == "knn_k") spec.knn_k = parse_int(value, line_no, key);
    else fail(line_no, "unknown workload key '" + key + "'");
  }
  check_workload(spec);
  if (spec.knn_k < 1) throw std::runtime_error("workload: knn_k must be >= 1");
  if (spec.mix_knn + spec.mix_coverage + spec.mix_load + spec.mix_stats +
          spec.mix_health <=
      0)
    throw std::runtime_error("workload: mix weights sum to zero");
  return spec;
}

WorkloadSpec load_workload_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open workload file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return parse_workload_string(buf.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

std::string format_workload(const WorkloadSpec& spec) {
  std::ostringstream out;
  out << "name        " << spec.name << '\n';
  out << "requests    " << spec.requests << '\n';
  out << "rate        " << JsonWriter::number_to_string(spec.rate) << '\n';
  out << "connections " << spec.connections << '\n';
  out << "seed        " << spec.seed << '\n';
  out << "knn_k       " << spec.knn_k << '\n';
  out << "mix         knn=" << spec.mix_knn
      << " coverage=" << spec.mix_coverage << " load=" << spec.mix_load
      << " stats=" << spec.mix_stats << " health=" << spec.mix_health << '\n';
  for (const ChurnSpec& c : spec.churn)
    out << "churn       every=" << c.every << ' ' << c.body << '\n';
  return out.str();
}

std::vector<ScheduledRequest> expand_schedule(const WorkloadSpec& spec,
                                              double side) {
  std::vector<ScheduledRequest> schedule;
  schedule.reserve(static_cast<std::size_t>(spec.requests));
  // Independent derived streams: adding a churn line or changing the mix
  // does not reshuffle coordinates, and vice versa.
  Rng verb_rng(Rng::derive(spec.seed, 1));
  Rng coord_rng(Rng::derive(spec.seed, 2));
  const int total_weight = spec.mix_knn + spec.mix_coverage + spec.mix_load +
                           spec.mix_stats + spec.mix_health;

  const auto point_request = [&](const char* op, bool with_k) {
    const double x = coord_rng.uniform(0.0, side);
    const double y = coord_rng.uniform(0.0, side);
    std::ostringstream out;
    JsonWriter w(out, /*indent=*/0);
    w.begin_object();
    w.kv("op", op);
    w.kv("x", x);
    w.kv("y", y);
    if (with_k) w.kv("k", spec.knn_k);
    w.end_object();
    return out.str();
  };

  for (int i = 0; i < spec.requests; ++i) {
    ScheduledRequest req;
    const int draw = verb_rng.uniform_int(1, total_weight);
    if (draw <= spec.mix_knn) {
      req.op = "knn";
      req.line = point_request("knn", /*with_k=*/true);
    } else if (draw <= spec.mix_knn + spec.mix_coverage) {
      req.op = "coverage";
      req.line = point_request("coverage", /*with_k=*/false);
    } else if (draw <= spec.mix_knn + spec.mix_coverage + spec.mix_load) {
      req.op = "load";
      req.line = "{\"op\":\"load\"}";
    } else if (draw <=
               spec.mix_knn + spec.mix_coverage + spec.mix_load +
                   spec.mix_stats) {
      req.op = "stats";
      req.line = "{\"op\":\"stats\"}";
    } else {
      req.op = "health";
      req.line = "{\"op\":\"health\"}";
    }
    schedule.push_back(std::move(req));

    for (const ChurnSpec& c : spec.churn) {
      if ((i + 1) % c.every != 0) continue;
      ScheduledRequest ev;
      ev.op = "event";
      std::ostringstream out;
      JsonWriter w(out, /*indent=*/0);
      w.begin_object();
      w.kv("op", "event");
      w.kv("spec", c.body);
      w.end_object();
      ev.line = out.str();
      schedule.push_back(std::move(ev));
    }
  }
  return schedule;
}

}  // namespace laacad::serve
