// Load driver for the serving daemon — the engine behind
// examples/serve_bench.cpp and tests/test_serve_bench.cpp.
//
// One ppoll loop on the calling thread (drive_requests) drives every
// connection: it writes each request once it is due, reads whatever
// answers have arrived, and hands each answer to a callback. The client
// runs no threads of its own, so it never competes with the daemon's
// connection threads and round loop for cores.
//
// Coordinated-omission safety: with a nonzero workload rate request i is
// due at start + i/rate whether or not earlier answers are back, and
// client latency is measured from that due time, not from when the bytes
// left. A server that stalls for 100 ms therefore charges that stall to
// every request due during it; a closed-loop bench would politely wait
// the stall out and report it as one slow request. rate = 0 is a closed
// loop: each connection's next request is due once the previous answer
// is in, so due == sent by construction. The control epilogue (drain,
// stats, optional shutdown) is one more closed-loop connection through
// the same loop.
//
// The report separates a deterministic section (config echo, scheduled
// per-op counts, response/error tallies — byte-identical across runs of
// the same workload) from a timing section (wall clock, percentiles,
// histograms, server-side breakdown); see write_bench_report.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.hpp"
#include "serve/workload.hpp"

namespace laacad::serve {

/// Ops a workload can schedule, in report order.
inline constexpr std::array<const char*, 6> kBenchOps = {
    "knn", "coverage", "load", "stats", "health", "event"};

struct BenchVerbStats {
  std::uint64_t scheduled = 0;  ///< deterministic: from the expanded schedule
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;  ///< protocol errors: ok:false or malformed line
  obs::Histogram latency;    ///< recv - due (CO-safe client view)
  obs::Histogram service;    ///< recv - sent (network + server only)
};

struct BenchResult {
  WorkloadSpec spec;
  double side = 0.0;
  std::array<BenchVerbStats, kBenchOps.size()> per_op;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  /// Requests left unanswered because their connection failed or closed,
  /// control epilogue included.
  std::uint64_t transport_errors = 0;
  double wall_s = 0.0;
  double achieved_rate_per_s = 0.0;
  /// The server's full `stats` response captured after the run drained —
  /// source of the server-side queue/query/serialize breakdown.
  std::string final_stats;
};

using BenchClock = std::chrono::steady_clock;

/// One connection's share of a schedule, in send order.
struct DriveConn {
  int fd = -1;  ///< connected socket; the loop makes it non-blocking
  std::vector<const ScheduledRequest*> reqs;
  /// Due time of each request (open loop). Empty: closed loop, where each
  /// request is due once the previous answer is in.
  std::vector<BenchClock::time_point> due;
};

/// One answered request. The protocol answers in order per connection.
struct DriveAnswer {
  const ScheduledRequest* req;
  BenchClock::time_point due;   ///< when the schedule wanted it sent
  BenchClock::time_point sent;  ///< when it went out; lag = sent - due
  BenchClock::time_point recv;
  std::string_view line;  ///< the response without its newline; valid
                          ///< only during the callback
};

struct DriveTotals {
  std::uint64_t sent = 0;
  std::uint64_t unanswered = 0;  ///< lost to a connection that failed or closed
};

/// Drive every connection's share to completion on the calling thread and
/// hand each answer to `on_answer`. Returns once every request is answered
/// or its connection is gone; the caller keeps and closes the fds. At most
/// 64 KiB of requests wait in a connection's output buffer, so a server
/// that stops reading pushes back on the schedule instead of deadlocking
/// both socket buffers.
DriveTotals drive_requests(
    const std::vector<DriveConn>& conns,
    const std::function<void(const DriveAnswer&)>& on_answer);

/// Replay `spec` against a daemon listening on host:port over real TCP.
/// After the workload completes the driver drains the event queue and
/// captures a final `stats` response; with `shutdown_after` it then sends
/// `shutdown` (use when this process owns the server and its serve() loop
/// must unblock). Throws on an invalid spec or a connect failure;
/// transport errors mid-run are tallied, not thrown.
BenchResult run_bench(const WorkloadSpec& spec, double side,
                      const std::string& host, int port, bool shutdown_after);

/// Write the BENCH_serve_latency.json document for `r` (indent 2).
void write_bench_report(const BenchResult& r, std::ostream& out);

}  // namespace laacad::serve
