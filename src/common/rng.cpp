#include "common/rng.hpp"

namespace laacad {

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

double Rng::uniform01() { return uniform(0.0, 1.0); }

int Rng::uniform_int(int lo, int hi) {
  std::uniform_int_distribution<int> d(lo, hi);
  return d(engine_);
}

double Rng::gaussian(double mean, double stddev) {
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

namespace {

/// splitmix64 finalizer: full-avalanche 64-bit mix.
std::uint64_t splitmix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng Rng::fork() {
  // splitmix-style scramble of a fresh 64-bit draw keeps child streams
  // decorrelated from the parent and from each other.
  return Rng(splitmix64(engine_() + 0x9e3779b97f4a7c15ULL));
}

std::uint64_t Rng::derive(std::uint64_t seed, std::uint64_t stream) {
  // Advance the seed along the splitmix64 golden-gamma sequence by
  // (stream + 1) steps' worth of increment, then finalize. stream + 1 keeps
  // derive(s, 0) != s even for s = 0.
  return splitmix64(seed + (stream + 1) * 0x9e3779b97f4a7c15ULL);
}

}  // namespace laacad
