// Noise schedule and binary-state transition matrices (paper Eqs. 7-8).
//
// The forward process applies, at step k, the doubly stochastic matrix
//   Q_k = [[1-beta_k, beta_k], [beta_k, 1-beta_k]]
// independently to every entry. Products of such matrices stay in the same
// family, so the cumulative transition Qbar_k = Q_1 ... Q_k is fully
// described by one scalar: the cumulative flip probability
//   cbar_k = cbar_{k-1} + beta_k - 2 * cbar_{k-1} * beta_k.
// With the paper's linear beta schedule (0.01 -> 0.5 over K steps) cbar_K
// converges to 0.5 — the uniform stationary distribution of Eq. 6 — early:
// at k = 28 of K = 40 and 145 of K = 1000 already (see chain_start()).
#pragma once

#include <cstdint>
#include <vector>

namespace diffpattern::diffusion {

struct ScheduleConfig {
  std::int64_t steps = 1000;       // K
  double beta_start = 0.01;        // beta_1
  double beta_end = 0.5;           // beta_K

  /// Paper default (Sec. IV-A). Scaled runs shrink `steps` only; the beta
  /// range already drives cbar to 0.5 for any K >= ~5.
  static ScheduleConfig paper();
};

/// Signal level below which x_k counts as pure noise (see chain_start()).
inline constexpr double kSignalEpsilon = 1e-6;

class BinarySchedule {
 public:
  explicit BinarySchedule(ScheduleConfig config);

  std::int64_t steps() const { return config_.steps; }
  const ScheduleConfig& config() const { return config_; }

  /// beta_k for k in [1, K] (Eq. 8, linear).
  double beta(std::int64_t k) const;

  /// Cumulative flip probability of Qbar_k; cumulative_flip(0) == 0.
  double cumulative_flip(std::int64_t k) const;

  /// K_eps: the first k whose signal 1 - 2 * cbar_k is below
  /// kSignalEpsilon, or K if none is. From K_eps on, x_k is the uniform
  /// prior to within kSignalEpsilon / 2 per entry, so the reverse chain
  /// starts here.
  std::int64_t chain_start() const { return chain_start_; }

  /// q(x_{k-1} = 1 | x_k, x_0) — the closed-form posterior of Eq. 12
  /// specialized to binary states.
  double posterior_prob1(std::int64_t k, int x_k, int x_0) const;

  /// Flip probability of the composite transition Q_{a+1} ... Q_b (the
  /// matrix that advances state a -> state b in one jump). flip_between(k-1,
  /// k) == beta(k); flip_between(0, k) == cumulative_flip(k).
  double flip_between(std::int64_t from, std::int64_t to) const;

  /// Generalized posterior for strided (DDIM-style) sampling:
  /// q(x_{k_prev} = 1 | x_k, x_0) for any 0 <= k_prev < k <= K. With
  /// k_prev == k - 1 this equals posterior_prob1.
  double posterior_prob1_between(std::int64_t k_prev, std::int64_t k, int x_k,
                                 int x_0) const;

 private:
  ScheduleConfig config_;
  std::vector<double> betas_;           // betas_[k-1] = beta_k
  std::vector<double> cumulative_flip_; // [k] = cbar_k, size K+1, [0] = 0
  std::int64_t chain_start_ = 0;
};

}  // namespace diffpattern::diffusion
