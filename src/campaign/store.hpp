// ResultStore — the campaign's streaming trial journal and resume manifest.
//
// Completed trials are appended to a line-oriented manifest the moment they
// finish (flushed per line, under a mutex), so killing a campaign mid-run
// loses at most the trials in flight. Re-running with resume replays the
// manifest: rows whose header matches the current spec (fingerprint, trial
// count, metric schema) are trusted verbatim and their trials are never
// re-executed — and because per-trial seeds derive from trial identity, the
// final aggregates are byte-identical to an uninterrupted run. The line
// format lives in campaign/manifest.hpp.
#pragma once

#include <map>
#include <mutex>
#include <fstream>
#include <string>

#include "campaign/manifest.hpp"
#include "campaign/trial.hpp"

namespace laacad::campaign {

class ResultStore {
 public:
  /// Opens the manifest at `path`. With `resume` an existing file is
  /// replayed into recovered() and then appended to; a parseable header
  /// that differs from `header` throws std::runtime_error reporting both
  /// the expected and the found fingerprint/trial/metric values — resuming
  /// a different campaign would silently mix experiments. Any other
  /// content throws too, leaving the file untouched. A missing, empty, or
  /// torn header (a kill inside the open-truncate-write window) recovers
  /// nothing and is rewritten, like any truncated tail, so crash-restarts
  /// with resume always go through. Without `resume` the file is
  /// truncated. An empty `path` disables journaling entirely (in-memory
  /// embedders like benches).
  ResultStore(std::string path, ManifestHeader header, bool resume);

  /// Trials recovered from an interrupted run, keyed by trial index.
  /// History is never journaled, so recovered rows have none.
  const std::map<int, TrialResult>& recovered() const { return recovered_; }

  /// Journal one completed trial: append + flush, thread-safe.
  void record(const TrialResult& result);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::mutex mutex_;
  std::map<int, TrialResult> recovered_;
};

}  // namespace laacad::campaign
