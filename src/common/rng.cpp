#include "common/rng.h"

#include <numeric>

#include "common/contracts.h"

namespace diffpattern::common {

namespace {

constexpr std::uint64_t kGoldenGamma = 0x9E3779B97F4A7C15ULL;

std::uint64_t splitmix64(std::uint64_t x) {
  x += kGoldenGamma;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  return splitmix64(splitmix64(seed ^ splitmix64(stream)) ^
                    splitmix64(index));
}

std::uint64_t splitmix64_next(std::uint64_t& state) {
  const std::uint64_t out = splitmix64(state);
  state += kGoldenGamma;
  return out;
}

double Rng::uniform(double lo, double hi) {
  DP_REQUIRE(lo < hi, "uniform: empty range");
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

double Rng::normal(double mean, double stddev) {
  DP_REQUIRE(stddev >= 0.0, "normal: negative stddev");
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  DP_REQUIRE(lo <= hi, "uniform_int: empty range");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

bool Rng::bernoulli(double p) {
  DP_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli: p outside [0, 1]");
  return std::bernoulli_distribution(p)(engine_);
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  DP_REQUIRE(!weights.empty(), "categorical: no weights");
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  DP_REQUIRE(total > 0.0, "categorical: weights must have positive sum");
  double draw = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    DP_REQUIRE(weights[i] >= 0.0, "categorical: negative weight");
    draw -= weights[i];
    if (draw <= 0.0) {
      return i;
    }
  }
  return weights.size() - 1;  // Guard against floating-point round-off.
}

Rng Rng::split() {
  return Rng(static_cast<std::uint64_t>(engine_()));
}

}  // namespace diffpattern::common
