// Deterministic random number generation for reproducible simulations.
//
// Every experiment in this repository threads an explicit `Rng` through its
// call chain; there is no hidden global generator, so a (seed, parameters)
// pair fully determines a run.
#pragma once

#include <cstdint>
#include <random>

namespace laacad {

/// Seeded pseudo-random generator wrapping std::mt19937_64 with the handful
/// of draw shapes the simulations need.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x1234abcdULL) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform integer in [lo, hi] (inclusive).
  int uniform_int(int lo, int hi);

  /// Normal draw with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Access to the underlying engine (e.g. for std::shuffle).
  std::mt19937_64& engine() { return engine_; }

  /// Derive an independent child generator; useful to give each node or each
  /// experiment repetition its own stream without correlation.
  Rng fork();

  /// Pure seed derivation (splitmix64): maps (seed, stream) to a new seed
  /// with full avalanche, so nearby streams (0, 1, 2, ...) yield
  /// decorrelated generators. Unlike fork() this consumes no generator
  /// state — the result depends only on the arguments, which is what lets
  /// sweeps hand every trial its own reproducible stream no matter which
  /// worker runs it or in what order.
  static std::uint64_t derive(std::uint64_t seed, std::uint64_t stream);

  /// Multi-level derivation: derive(seed, a, b) == derive(derive(seed, a),
  /// b). Argument order matters (stream a=1,b=2 differs from a=2,b=1).
  template <typename... Rest>
  static std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                              std::uint64_t next, Rest... rest) {
    return derive(derive(seed, stream), next, rest...);
  }

 private:
  std::mt19937_64 engine_;
};

}  // namespace laacad
