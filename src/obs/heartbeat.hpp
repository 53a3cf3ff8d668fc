// Structured progress heartbeats — machine-readable JSON lines on stderr.
//
// A heartbeat is one line, one JSON object, first key `"hb"`, so a consumer
// can classify a stream line with a prefix check and never has to scrape
// human stdout. campaign_runner emits `"hb":"campaign"` lines as trials
// land, laacad_sim `"engine"` lines per round, scale_ladder `"ladder"`
// lines per rung, and laacad_serve `"serve"` lines (and answers `health`
// with one).
//
// Heartbeats are observability output: they go to stderr (or whatever FILE*
// the emitter was given), carry wall-clock fields (rate, ETA, epoch
// timestamps), and must never be written into byte-identical BENCH_*
// artifacts. Each line is formatted into one buffer and handed to the OS in
// a single write, so concurrent emitters cannot shear a line.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

namespace laacad::obs {

/// One heartbeat to format. Optional fields at -1 are left off the line;
/// NaN rate/eta serialize as null.
struct Heartbeat {
  std::string kind;   ///< "campaign" | "engine" | "ladder" | "serve"
  std::string name;   ///< campaign (or run) name
  int done = 0;       ///< units completed (trials, rounds, rungs, events)
  int total = 0;      ///< units planned
  int ok = 0;         ///< completed units that verified
  int live = -1;      ///< serve only: live nodes
  int round = -1;     ///< serve only: global rounds executed
  std::int64_t epoch = -1;  ///< serve only: published snapshot epoch
  int queue = -1;     ///< serve only: event-queue depth
  double rate_per_s = 0.0;  ///< completion rate (wall-clock)
  double eta_s = 0.0;       ///< projected seconds to completion (wall-clock)
  std::uint64_t ts_ms = 0;  ///< unix epoch milliseconds at emission
};

/// One-line JSON serialization, `\n`-terminated. Key order is fixed and
/// `hb` always leads, which is what makes a consumer's `{"hb":` prefix
/// check sufficient.
std::string format_heartbeat(const Heartbeat& hb);

/// Stateful emitter: tracks elapsed wall-clock to derive rate and ETA, and
/// writes each line atomically to `sink` (typically stderr). Not
/// thread-safe; call from one thread (campaign progress callbacks already
/// run under the scheduler lock).
class HeartbeatEmitter {
 public:
  HeartbeatEmitter(std::FILE* sink, std::string kind, std::string name,
                   int total);

  /// Emit one heartbeat for `done` completed / `ok` verified trials.
  void tick(int done, int ok);

 private:
  std::FILE* sink_;
  Heartbeat hb_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace laacad::obs
