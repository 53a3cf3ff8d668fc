// Per-directory rule policy for laacad_lint. The policy is a line-oriented
// spec (same '#'-comment/whitespace grammar as scenarios/campaigns, via
// common/specparse) that maps path prefixes — relative to the lint root —
// onto rule adjustments:
//
//   base  <rule> [<rule>...]     # replace the default base rule set
//   extra <prefix> <rule>...     # additionally enforce rules under prefix
//   allow <prefix> <rule>...     # stop enforcing rules under prefix
//
// Base rules (enforced everywhere unless allowed away):
//   wall-clock ambient-rng ambient-env unordered-iter pragma-once
// `extra` is how geometry/ and voronoi/ opt into float-arith; `allow` is
// how obs/ and the serving timing sinks opt out of wall-clock. An
// `allow` prefix names its justification in a trailing '#' comment — the
// policy file is the written record of every directory-level exemption,
// while `// lint:allow(rule): reason` pragmas (see rules.hpp) record the
// line-level ones.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace laacad::lint {

/// Every rule name the policy (and the pragma parser) accepts.
const std::vector<std::string>& known_rules();

/// True iff `rule` is in known_rules().
bool is_known_rule(const std::string& rule);

class Policy {
 public:
  /// The built-in policy: base rules only, no prefix entries.
  Policy();

  /// Parse a policy spec; throws std::runtime_error("line N: ...") on
  /// unknown rules, bad directives, or empty prefixes.
  static Policy parse(std::istream& in);
  static Policy load(const std::string& path);

  /// Rules enforced for `rel_path` (root-relative, '/'-separated):
  /// base + every matching `extra`, minus every matching `allow`.
  /// A prefix matches when rel_path starts with it.
  std::vector<std::string> rules_for(const std::string& rel_path) const;

 private:
  struct Entry {
    std::string prefix;
    std::vector<std::string> rules;
    bool allow = false;  // false: extra
  };

  std::vector<std::string> base_;
  std::vector<Entry> entries_;
};

}  // namespace laacad::lint
