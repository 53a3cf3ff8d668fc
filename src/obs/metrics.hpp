// Unified metrics registry — the read side of the observability layer.
//
// Layering: `common/perf_counters.hpp` stays the lock-free thread-local
// substrate the kernels increment (one add per event batch, Release-cheap).
// What this registry adds on top:
//
//  * Exact pool-wide counter totals. common::ThreadPool::run() captures
//    each worker chunk's counter delta and folds it into the calling
//    thread's block after the join (uint64 addition commutes, so the total
//    is deterministic for any chunk schedule). CounterScope reads that
//    calling-thread block as before/after snapshots, so dist²/clip/grid
//    totals are exact for *any* num_threads — the "only trustworthy when
//    serial" caveat is gone.
//  * Named gauges (peak RSS, queue depth): last-write-wins doubles behind a
//    mutex, for the serving `stats` verb and stdout summaries. Gauges are wall-clock/
//    machine facts and must never enter byte-identical BENCH artifacts.
//
// Stage timers live with the tracer (obs/trace.hpp): a stage total is just
// the per-name aggregation of its spans, returned by stop_trace().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/perf_counters.hpp"

namespace laacad::obs {

/// Snapshot-delta reader for the calling thread's kernel counters. With the
/// pool aggregation in common::ThreadPool, the delta over a region of code
/// equals the *global* event total of every parallel_for issued from this
/// thread in that region, plus its own serial work — exact for any thread
/// count, bit-equal to a serial run.
class CounterScope {
 public:
  CounterScope() : start_(perf::counters()) {}

  /// Events since construction (or the last reset()).
  perf::KernelCounters delta() const {
    return perf::counters().diff(start_);
  }

  void reset() { start_ = perf::counters(); }

 private:
  perf::KernelCounters start_;
};

/// Process-wide named gauges. Small, mutex-guarded, meant for a handful of
/// slowly changing values (queue depth, publish cost) read by the serving
/// `stats` verb and stdout summaries — not for per-event hot paths (that
/// is what the counters are for).
class Registry {
 public:
  static Registry& instance();

  /// Set (or create) a gauge. Thread-safe, last write wins.
  void set_gauge(const std::string& name, double value);

  /// Current value, or NaN when the gauge was never set.
  double gauge(const std::string& name) const;

  /// All gauges, sorted by name (deterministic listing order).
  std::vector<std::pair<std::string, double>> gauges() const;

  /// Drop all gauges (tests; scale_ladder between rungs).
  void clear();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace laacad::obs
