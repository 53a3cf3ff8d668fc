#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/json_writer.hpp"

namespace laacad::obs {

namespace detail {
std::atomic<unsigned> g_state{0};
}  // namespace detail

namespace {

constexpr unsigned kTraceFile = 1u;
constexpr unsigned kTimers = 2u;

struct SpanEvent {
  const char* name;     ///< string literal owned by the caller
  std::uint64_t ts_ns;  ///< relative to session start (wall-clock field)
  std::uint64_t dur_ns; ///< wall-clock field
  std::int64_t arg;     ///< deterministic label (round, trial, phase, chunk)
  int depth;            ///< deterministic nesting depth on this thread
  bool has_arg;
};

/// One thread's share of the session. The owner thread is the only writer;
/// the mutex is taken per append so the stop_trace() flush — which may run
/// on a different thread — reads a consistent buffer without assuming every
/// emitter has provably joined. Uncontended lock/unlock is tens of
/// nanoseconds, paid only while tracing is on.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<SpanEvent> events;
  /// Stage totals, keyed by name pointer. A session uses a handful of
  /// distinct literals, so the linear scan beats any hash map.
  std::vector<std::pair<const char*, StageTotal>> stages;
  int tid = 0;    ///< registration order within the session
  int depth = 0;  ///< owner-thread span nesting (no lock needed)
};

struct Session {
  std::mutex mu;
  bool active = false;
  bool file_sink = false;
  std::string path;
  std::uint64_t generation = 0;
  std::chrono::steady_clock::time_point t0;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

Session& session() {
  static Session s;
  return s;
}

/// Published copy of Session::generation so the per-thread fast path can
/// detect a new session without taking the session mutex.
std::atomic<std::uint64_t> g_generation{0};

/// The calling thread's buffer for the *current* session, registering on
/// first use. Returns nullptr when no session is active (collection raced
/// with stop_trace — the span is dropped, which is fine: stop_trace is
/// documented to run after instrumented work joins).
ThreadBuffer* my_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf;
  thread_local std::uint64_t gen = 0;
  if (!buf || gen != g_generation.load(std::memory_order_acquire)) {
    Session& s = session();
    std::lock_guard<std::mutex> lk(s.mu);
    if (!s.active) return nullptr;
    buf = std::make_shared<ThreadBuffer>();
    buf->tid = static_cast<int>(s.buffers.size());
    s.buffers.push_back(buf);
    gen = s.generation;
  }
  return buf.get();
}

void accumulate_stage(ThreadBuffer& b, const char* name, std::uint64_t dur) {
  for (auto& [n, total] : b.stages) {
    if (n == name) {
      ++total.count;
      total.total_ns += dur;
      total.hist.record(dur);
      return;
    }
  }
  b.stages.emplace_back(name, StageTotal{});
  StageTotal& total = b.stages.back().second;
  total.count = 1;
  total.total_ns = dur;
  total.hist.record(dur);
}

void write_trace_json(const std::string& path,
                      const std::vector<std::shared_ptr<ThreadBuffer>>& bufs) {
  std::ofstream out(path, std::ios::trunc);
  if (!out)
    throw std::runtime_error("obs: cannot write trace file: " + path);
#ifndef _WIN32
  const std::int64_t pid = static_cast<std::int64_t>(getpid());
#else
  const std::int64_t pid = 0;
#endif
  // Compact output: a million-span trace at indent 2 would spend most of
  // its bytes on whitespace Perfetto ignores.
  JsonWriter w(out, /*indent=*/0);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("otherData").begin_object();
  w.kv("tool", "laacad");
  w.kv("format", "chrome-trace-events");
  w.end_object();
  w.key("traceEvents").begin_array();
  w.begin_object();
  w.kv("name", "process_name");
  w.kv("ph", "M");
  w.kv("pid", pid);
  w.key("args").begin_object();
  w.kv("name", "laacad");
  w.end_object();
  w.end_object();
  for (const auto& buf : bufs) {
    for (const SpanEvent& e : buf->events) {
      w.begin_object();
      w.kv("name", e.name);
      w.kv("cat", "laacad");
      w.kv("ph", "X");
      w.kv("pid", pid);
      w.kv("tid", buf->tid);
      // Microseconds, the trace-event convention; sub-microsecond spans
      // keep their nanosecond digits as a fraction.
      w.kv("ts", static_cast<double>(e.ts_ns) / 1000.0);
      w.kv("dur", static_cast<double>(e.dur_ns) / 1000.0);
      w.key("args").begin_object();
      w.kv("depth", e.depth);
      if (e.has_arg) w.kv("n", e.arg);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  out << '\n';
  if (!out)
    throw std::runtime_error("obs: short write on trace file: " + path);
}

void start_session(const std::string& path, bool file_sink) {
  Session& s = session();
  std::lock_guard<std::mutex> lk(s.mu);
  if (s.active)
    throw std::runtime_error(
        "obs: a trace/timer session is already active; stop it first");
  s.active = true;
  s.file_sink = file_sink;
  s.path = path;
  s.buffers.clear();
  ++s.generation;
  s.t0 = std::chrono::steady_clock::now();
  g_generation.store(s.generation, std::memory_order_release);
  detail::g_state.store(file_sink ? (kTraceFile | kTimers) : kTimers,
                        std::memory_order_release);
}

}  // namespace

namespace detail {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - session().t0)
          .count());
}

void open_span(const char* /*name*/) {
  ThreadBuffer* b = my_buffer();
  if (b) ++b->depth;
}

void close_span(const char* name, std::uint64_t t0_ns, std::int64_t arg,
                bool has_arg) {
  ThreadBuffer* b = my_buffer();
  if (!b) return;
  const std::uint64_t t1 = now_ns();
  const std::uint64_t dur = t1 > t0_ns ? t1 - t0_ns : 0;
  // The matching open_span incremented depth, so the span itself sits at
  // depth - 1; decrement before recording.
  --b->depth;
  std::lock_guard<std::mutex> lk(b->mu);
  accumulate_stage(*b, name, dur);
  if (g_state.load(std::memory_order_relaxed) & kTraceFile)
    b->events.push_back(
        SpanEvent{name, t0_ns, dur, arg, b->depth, has_arg});
}

}  // namespace detail

void emit_span(const char* name, std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1, std::int64_t arg) {
  if (!enabled()) return;
  ThreadBuffer* b = my_buffer();
  if (!b) return;
  const Session& s = session();
  auto rel = [&](std::chrono::steady_clock::time_point t) -> std::uint64_t {
    const auto d =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - s.t0).count();
    return d > 0 ? static_cast<std::uint64_t>(d) : 0;
  };
  const std::uint64_t ts = rel(t0);
  const std::uint64_t dur = rel(t1) > ts ? rel(t1) - ts : 0;
  std::lock_guard<std::mutex> lk(b->mu);
  accumulate_stage(*b, name, dur);
  if (detail::g_state.load(std::memory_order_relaxed) & kTraceFile)
    b->events.push_back(SpanEvent{name, ts, dur, arg, b->depth, true});
}

void start_trace(const std::string& path) { start_session(path, true); }

void start_timers() { start_session(std::string(), false); }

bool active() {
  Session& s = session();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.active;
}

TraceReport stop_trace() {
  TraceReport report;
  Session& s = session();
  std::vector<std::shared_ptr<ThreadBuffer>> bufs;
  std::string path;
  bool file_sink = false;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (!s.active) return report;
    // Disable collection before flushing: span sites go back to the
    // load+branch no-op, and any site that already fetched its buffer
    // finishes its append under that buffer's mutex before we read it.
    detail::g_state.store(0, std::memory_order_release);
    s.active = false;
    bufs = std::move(s.buffers);
    s.buffers.clear();
    path = std::move(s.path);
    file_sink = s.file_sink;
  }

  std::vector<std::pair<std::string, StageTotal>> stages;
  for (const auto& buf : bufs) {
    std::lock_guard<std::mutex> lk(buf->mu);
    report.spans += buf->events.size();
    if (!buf->events.empty() || !buf->stages.empty()) ++report.threads;
    for (const auto& [name, total] : buf->stages) {
      auto it = std::find_if(stages.begin(), stages.end(),
                             [&](const auto& p) { return p.first == name; });
      if (it == stages.end()) {
        stages.emplace_back(name, total);
      } else {
        it->second.count += total.count;
        it->second.total_ns += total.total_ns;
        it->second.hist.merge(total.hist);
      }
    }
  }
  std::sort(stages.begin(), stages.end(), [](const auto& a, const auto& b) {
    return a.second.total_ns != b.second.total_ns
               ? a.second.total_ns > b.second.total_ns
               : a.first < b.first;
  });
  report.stages = std::move(stages);

  if (file_sink) write_trace_json(path, bufs);
  return report;
}

}  // namespace laacad::obs
