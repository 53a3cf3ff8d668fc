// Entry points of the benchmark harness (see main.cpp for the command
// line). Every command prints JSON lines on stdout; perfbench/run.py reads
// them, applies the correctness gates and reduces them to metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/common.hpp"
#include "wsn/domain.hpp"
#include "wsn/network.hpp"

namespace perfbench {

/// `batch`: build and solve one scenario per seed. Solve path "engine" uses
/// Engine::run (phase 0 only), path "scenario" uses ScenarioRunner::run
/// (every phase, event and verification). With `trace`
/// each instance is solved twice: untraced, then by the traced replica of
/// the same round loop, and the two digests are reported side by side.
struct BatchOptions {
  std::string scn_path;
  std::string solve = "engine";
  std::vector<std::uint64_t> seeds;
  int threads = 2;
  bool trace = false;
  /// Traced runs only: serving spec and workload for the in-process serve
  /// probe (json_writer, protocol, snapshot, server and client layers).
  std::string serve_scn;
  std::string serve_wl;
};
int run_batch(const BatchOptions& opt);

/// `loadgen`: one open-loop segment against a daemon on 127.0.0.1:port.
struct LoadOptions {
  int port = 0;
  std::string wl_path;
  double side = 0.0;  ///< query coordinates draw over [0, side]^2
  double rate = 0.0;
  int requests = 0;
  std::uint64_t seed = 1;
};
int run_loadgen(const LoadOptions& opt);

/// Result of one open-loop segment (also used in-process by the traced
/// batch run's serve probe).
struct LoadResult {
  std::uint64_t scheduled = 0, sent = 0, received = 0, ok = 0, protocol_errors = 0,
                transport_errors = 0, events_sent = 0;
  double wall_s = 0.0;       ///< first scheduled send to last receive
  double achieved_rps = 0.0;
  std::vector<double> latency_us;   ///< receive - scheduled send
  std::vector<double> lag_us;       ///< actual send - scheduled send
  std::vector<double> visible_ms;   ///< event send -> first stats showing it
};
LoadResult drive_load(const LoadOptions& opt);
void write_load_fields(const LoadResult& r, JsonLine& out);

/// Serving-layer probes for a traced run: an in-process CoverageService on
/// `serve_scn` behind a loopback TcpServer takes a short open-loop segment
/// of `serve_wl`, then json_writer, protocol and snapshot calls are timed
/// directly. Snapshot probes use `net` (the workload's final deployment).
void serve_layer_probes(const std::string& serve_scn,
                        const std::string& serve_wl,
                        const laacad::wsn::Network& net, JsonLine& out);

}  // namespace perfbench
