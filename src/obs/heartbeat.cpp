#include "obs/heartbeat.hpp"

#include <cmath>
#include <sstream>

#include "common/json_writer.hpp"

namespace laacad::obs {

std::string format_heartbeat(const Heartbeat& hb) {
  std::ostringstream out;
  JsonWriter w(out, /*indent=*/0);
  w.begin_object();
  w.kv("hb", hb.kind);
  w.kv("name", hb.name);
  w.kv("done", hb.done);
  w.kv("total", hb.total);
  w.kv("ok", hb.ok);
  if (hb.live >= 0) w.kv("live", hb.live);
  if (hb.round >= 0) w.kv("round", hb.round);
  if (hb.epoch >= 0) w.kv("epoch", hb.epoch);
  if (hb.queue >= 0) w.kv("queue", hb.queue);
  w.kv("rate_per_s", hb.rate_per_s);  // NaN -> null by JsonWriter
  w.kv("eta_s", hb.eta_s);
  w.kv("ts_ms", hb.ts_ms);
  w.end_object();
  std::string s = out.str();
  s += '\n';
  return s;
}

HeartbeatEmitter::HeartbeatEmitter(std::FILE* sink, std::string kind,
                                   std::string name, int total)
    : sink_(sink), start_(std::chrono::steady_clock::now()) {
  hb_.kind = std::move(kind);
  hb_.name = std::move(name);
  hb_.total = total;
}

void HeartbeatEmitter::tick(int done, int ok) {
  hb_.done = done;
  hb_.ok = ok;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  hb_.rate_per_s = elapsed > 0.0 ? done / elapsed : 0.0;
  hb_.eta_s = hb_.rate_per_s > 0.0 ? (hb_.total - done) / hb_.rate_per_s
                                   : std::nan("");
  hb_.ts_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  const std::string line = format_heartbeat(hb_);
  // One write per line: heartbeats from concurrent processes interleave at
  // line granularity, never mid-line.
  std::fwrite(line.data(), 1, line.size(), sink_);
  std::fflush(sink_);
}

}  // namespace laacad::obs
