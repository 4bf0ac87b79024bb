// Seeded random number generation.
//
// Every stochastic component in the library takes an explicit Rng (or a
// seed) so that experiments are reproducible; there is no global RNG state.
// Rng::split derives an independent child stream, which lets a pipeline hand
// deterministic sub-seeds to its stages.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace diffpattern::common {

/// Deterministically derives a child seed from (seed, stream, index) via
/// splitmix64. The service layer uses this to hand every request stage
/// (sampling, per-topology legalization, ...) its own independent stream, so
/// results are reproducible regardless of batching or thread scheduling.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index = 0);

/// One step of the stateful splitmix64 sequence: advances `state` and
/// returns the next output. Router placement, reconnect jitter and chaos
/// fault fates draw from it.
std::uint64_t splitmix64_next(std::uint64_t& state);

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal (mean 0, stddev 1) scaled/shifted.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli draw with probability `p` of returning true.
  bool bernoulli(double p);

  /// Draws an index in [0, weights.size()) proportionally to `weights`.
  /// All weights must be non-negative with a positive sum.
  std::size_t categorical(const std::vector<double>& weights);

  /// Derives an independent child generator; advancing the child does not
  /// perturb the parent stream beyond this single draw.
  Rng split();

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(values[i - 1], values[j]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace diffpattern::common
