#include "diffusion/schedule.h"

#include <algorithm>

#include "common/contracts.h"

namespace diffpattern::diffusion {

ScheduleConfig ScheduleConfig::paper() {
  return ScheduleConfig{};  // K = 1000, beta in [0.01, 0.5].
}

BinarySchedule::BinarySchedule(ScheduleConfig config) : config_(config) {
  DP_REQUIRE(config_.steps >= 1, "BinarySchedule: steps must be >= 1");
  DP_REQUIRE(config_.beta_start > 0.0 && config_.beta_start < 1.0,
             "BinarySchedule: beta_start outside (0, 1)");
  DP_REQUIRE(config_.beta_end > 0.0 && config_.beta_end <= 0.5,
             "BinarySchedule: beta_end outside (0, 0.5]");
  DP_REQUIRE(config_.beta_start <= config_.beta_end,
             "BinarySchedule: beta_start must not exceed beta_end");
  betas_.resize(static_cast<std::size_t>(config_.steps));
  cumulative_flip_.assign(static_cast<std::size_t>(config_.steps) + 1, 0.0);
  chain_start_ = config_.steps;
  for (std::int64_t k = 1; k <= config_.steps; ++k) {
    // Eq. 8: linear interpolation from beta_1 to beta_K.
    const double beta =
        config_.steps == 1
            ? config_.beta_start
            : config_.beta_start + static_cast<double>(k - 1) *
                                       (config_.beta_end - config_.beta_start) /
                                       static_cast<double>(config_.steps - 1);
    betas_[static_cast<std::size_t>(k - 1)] = beta;
    const double prev = cumulative_flip_[static_cast<std::size_t>(k - 1)];
    const double cbar = prev + beta - 2.0 * prev * beta;
    cumulative_flip_[static_cast<std::size_t>(k)] = cbar;
    if (1.0 - 2.0 * cbar < kSignalEpsilon) {
      chain_start_ = std::min(chain_start_, k);
    }
  }
}

double BinarySchedule::beta(std::int64_t k) const {
  DP_REQUIRE(k >= 1 && k <= config_.steps, "beta: k outside [1, K]");
  return betas_[static_cast<std::size_t>(k - 1)];
}

double BinarySchedule::cumulative_flip(std::int64_t k) const {
  DP_REQUIRE(k >= 0 && k <= config_.steps,
             "cumulative_flip: k outside [0, K]");
  return cumulative_flip_[static_cast<std::size_t>(k)];
}

double BinarySchedule::posterior_prob1(std::int64_t k, int x_k, int x_0) const {
  return posterior_prob1_between(k - 1, k, x_k, x_0);
}

double BinarySchedule::flip_between(std::int64_t from, std::int64_t to) const {
  DP_REQUIRE(from >= 0 && from <= to && to <= config_.steps,
             "flip_between: need 0 <= from <= to <= K");
  // Composition rule for symmetric 2-state matrices M(c): M(a)M(s) = M(a +
  // s - 2as). Solve cbar_to = cbar_from + s - 2 * cbar_from * s for s.
  const double a = cumulative_flip(from);
  const double b = cumulative_flip(to);
  const double denom = 1.0 - 2.0 * a;
  if (denom < 1e-300) {
    // The chain is already at the uniform stationary distribution at
    // `from`; any further transition is indistinguishable from uniform.
    return 0.5;
  }
  return std::clamp((b - a) / denom, 0.0, 0.5);
}

double BinarySchedule::posterior_prob1_between(std::int64_t k_prev,
                                               std::int64_t k, int x_k,
                                               int x_0) const {
  DP_REQUIRE(k >= 1 && k <= config_.steps,
             "posterior_prob1_between: k outside [1, K]");
  DP_REQUIRE(k_prev >= 0 && k_prev < k,
             "posterior_prob1_between: need 0 <= k_prev < k");
  DP_REQUIRE((x_k == 0 || x_k == 1) && (x_0 == 0 || x_0 == 1),
             "posterior_prob1_between: states must be binary");
  // Adjacent steps use beta(k) exactly; the composite formula suffers
  // catastrophic cancellation near stationarity and is reserved for jumps.
  const double step_flip =
      k_prev == k - 1 ? beta(k) : flip_between(k_prev, k);
  const double cb_prev = cumulative_flip(k_prev);
  // q(x_{k_prev} = s | x_k, x_0) ∝ Q_{k_prev->k}[s -> x_k] *
  // Qbar_{k_prev}[x_0 -> s].
  const auto q_step = [&](int s) {
    return s == x_k ? 1.0 - step_flip : step_flip;
  };
  const auto q_cum = [&](int s) { return s == x_0 ? 1.0 - cb_prev : cb_prev; };
  const double w1 = q_step(1) * q_cum(1);
  const double w0 = q_step(0) * q_cum(0);
  DP_CHECK(w0 + w1 > 0.0, "posterior_prob1_between: degenerate posterior");
  return w1 / (w0 + w1);
}

}  // namespace diffpattern::diffusion
