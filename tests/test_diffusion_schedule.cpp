#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "diffusion/schedule.h"

namespace dd = diffpattern::diffusion;

TEST(Schedule, LinearBetaEndpoints) {
  dd::BinarySchedule s(dd::ScheduleConfig{.steps = 100});
  EXPECT_NEAR(s.beta(1), 0.01, 1e-12);
  EXPECT_NEAR(s.beta(100), 0.5, 1e-12);
  // Monotone increasing (Eq. 8 with beta_end > beta_start).
  for (std::int64_t k = 2; k <= 100; ++k) {
    EXPECT_GT(s.beta(k), s.beta(k - 1));
  }
}

TEST(Schedule, SingleStepUsesBetaStart) {
  dd::BinarySchedule s(dd::ScheduleConfig{.steps = 1});
  EXPECT_NEAR(s.beta(1), 0.01, 1e-12);
}

TEST(Schedule, CumulativeFlipMatchesExplicitProduct) {
  // cbar_k from the recurrence must equal the (0,1) entry of the explicit
  // 2x2 matrix product Q_1 ... Q_k.
  dd::BinarySchedule s(dd::ScheduleConfig{.steps = 50});
  double m00 = 1.0, m01 = 0.0;  // Row 0 of the cumulative matrix.
  for (std::int64_t k = 1; k <= 50; ++k) {
    const double b = s.beta(k);
    const double n00 = m00 * (1.0 - b) + m01 * b;
    const double n01 = m00 * b + m01 * (1.0 - b);
    m00 = n00;
    m01 = n01;
    EXPECT_NEAR(s.cumulative_flip(k), m01, 1e-12) << "k=" << k;
  }
}

TEST(Schedule, ConvergesToUniformStationary) {
  // Paper Eq. 6: q(x_K | x_0) -> [0.5, 0.5].
  for (std::int64_t steps : {10, 50, 1000}) {
    dd::BinarySchedule s(dd::ScheduleConfig{.steps = steps});
    EXPECT_NEAR(s.cumulative_flip(steps), 0.5, 1e-3) << "K=" << steps;
  }
}

TEST(Schedule, CumulativeFlipMonotone) {
  dd::BinarySchedule s(dd::ScheduleConfig{.steps = 200});
  for (std::int64_t k = 1; k <= 200; ++k) {
    EXPECT_GE(s.cumulative_flip(k), s.cumulative_flip(k - 1) - 1e-15);
    EXPECT_LE(s.cumulative_flip(k), 0.5 + 1e-12);
  }
}

TEST(Schedule, PosteriorMatchesBayesBruteForce) {
  // q(x_{k-1}|x_k, x_0) from the closed form must match Bayes' rule applied
  // to the chain probabilities directly.
  dd::BinarySchedule s(dd::ScheduleConfig{.steps = 30});
  for (std::int64_t k = 1; k <= 30; ++k) {
    const double b = s.beta(k);
    const double cb_prev = s.cumulative_flip(k - 1);
    for (int x0 = 0; x0 <= 1; ++x0) {
      for (int xk = 0; xk <= 1; ++xk) {
        // joint(s) = q(x_{k-1}=s | x0) * q(x_k | x_{k-1}=s)
        double joint[2];
        for (int state = 0; state <= 1; ++state) {
          const double q_prev = state == x0 ? 1.0 - cb_prev : cb_prev;
          const double q_step = state == xk ? 1.0 - b : b;
          joint[state] = q_prev * q_step;
        }
        const double expected = joint[1] / (joint[0] + joint[1]);
        EXPECT_NEAR(s.posterior_prob1(k, xk, x0), expected, 1e-12)
            << "k=" << k << " xk=" << xk << " x0=" << x0;
      }
    }
  }
}

TEST(Schedule, PosteriorAtStepOnePinsToX0) {
  // cbar_0 = 0, so x_{k-1} = x_0 deterministically when k = 1.
  dd::BinarySchedule s(dd::ScheduleConfig{.steps = 10});
  EXPECT_NEAR(s.posterior_prob1(1, 0, 1), 1.0, 1e-12);
  EXPECT_NEAR(s.posterior_prob1(1, 1, 1), 1.0, 1e-12);
  EXPECT_NEAR(s.posterior_prob1(1, 0, 0), 0.0, 1e-12);
  EXPECT_NEAR(s.posterior_prob1(1, 1, 0), 0.0, 1e-12);
}

TEST(Schedule, RejectsBadConfig) {
  EXPECT_THROW(dd::BinarySchedule(dd::ScheduleConfig{.steps = 0}),
               std::invalid_argument);
  EXPECT_THROW(dd::BinarySchedule(dd::ScheduleConfig{
                   .steps = 10, .beta_start = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(dd::BinarySchedule(dd::ScheduleConfig{
                   .steps = 10, .beta_start = 0.01, .beta_end = 0.6}),
               std::invalid_argument);
  EXPECT_THROW(dd::BinarySchedule(dd::ScheduleConfig{
                   .steps = 10, .beta_start = 0.4, .beta_end = 0.2}),
               std::invalid_argument);
}

TEST(Schedule, PaperConfigDefaults) {
  const auto cfg = dd::ScheduleConfig::paper();
  EXPECT_EQ(cfg.steps, 1000);
  EXPECT_DOUBLE_EQ(cfg.beta_start, 0.01);
  EXPECT_DOUBLE_EQ(cfg.beta_end, 0.5);
}

TEST(Schedule, ChainStartIsWhereTheSignalEnds) {
  // K_eps per schedule length under the paper's beta range: K itself up to
  // K = 16, then well short of K (quick scale 28 of 40, paper scale 145 of
  // 1000).
  const std::vector<std::pair<std::int64_t, std::int64_t>> expected = {
      {1, 1},   {6, 6},   {16, 16},   {20, 18},
      {40, 28}, {100, 47}, {1000, 145}};
  for (const auto& [steps, start] : expected) {
    dd::BinarySchedule s(dd::ScheduleConfig{.steps = steps});
    EXPECT_EQ(s.chain_start(), start) << "K=" << steps;
    const auto signal = [&](std::int64_t k) {
      return 1.0 - 2.0 * s.cumulative_flip(k);
    };
    if (start < steps) {
      EXPECT_LT(signal(start), dd::kSignalEpsilon) << "K=" << steps;
    }
    EXPECT_GE(signal(start - 1), dd::kSignalEpsilon) << "K=" << steps;
  }
}
