// Manifest codec — the line format of the ResultStore journal.
//
// A manifest is a header line followed by one record per completed trial:
//
//   laacad.campaign.manifest.v1 fp=<hex> trials=<N> metrics=<M>
//   trial <index> <ok:0|1> <m1> ... <mM> [E<len> <error text>] ;
//
// The header is exactly these four tokens; anything else (including a
// fifth token) is not a header.
//
// Doubles use JsonWriter::number_to_string (shortest exact round-trip; NaN
// prints as null); a failed trial's error text is journaled length-prefixed
// so it round-trips exactly; the " ;" terminator marks a row as completely
// written — a kill mid-write cannot truncate a row into a different *valid*
// row, so replay stops at the first malformed line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>

#include "campaign/trial.hpp"

namespace laacad::campaign {

/// Everything the header line encodes. Two manifests with equal headers
/// journal trials of the same campaign identity.
struct ManifestHeader {
  std::uint64_t fingerprint = 0;
  int trials = 0;   ///< size of the trial matrix
  int metrics = 0;  ///< metric_names().size() at write time

  bool operator==(const ManifestHeader&) const = default;
};

/// Serialize the header line (no trailing newline).
std::string format_manifest_header(const ManifestHeader& header);

/// Parse a header line; nullopt when the line is not a valid header
/// (wrong magic, wrong token count, or malformed fields).
std::optional<ManifestHeader> parse_manifest_header(const std::string& line);

/// Describe a header for error messages: "fp=<hex> trials=N metrics=M".
std::string describe_manifest_header(const ManifestHeader& header);

/// Serialize one trial record (no trailing newline).
std::string format_manifest_row(const TrialResult& result);

/// Replay trial records from `in` (positioned after the header) until the
/// first malformed or terminator-less line — the signature of a kill
/// mid-write — which is ignored along with everything after it. Rows are
/// keyed by trial index; the first completion of a trial wins (duplicates
/// can only be re-records of the same deterministic row). Rows outside
/// [0, total_trials) stop the replay like any other malformed line.
std::map<int, TrialResult> replay_manifest_rows(std::istream& in,
                                                int total_trials);

}  // namespace laacad::campaign
