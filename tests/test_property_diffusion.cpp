// Parameterized properties of the diffusion schedule and the strided
// sampler.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "diffusion/diffusion.h"
#include "sampling_test_util.h"
#include "tensor/tensor_ops.h"

namespace dd = diffpattern::diffusion;
namespace du = diffpattern::unet;
namespace dc = diffpattern::common;
namespace nn = diffpattern::nn;
using diffpattern::testutil::sample_slots;
using diffpattern::testutil::uniform_strides;
using diffpattern::tensor::Tensor;

// ---- schedule sweep ---------------------------------------------------------

class ScheduleSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ScheduleSweep, StationaryAndMonotone) {
  dd::BinarySchedule s(dd::ScheduleConfig{.steps = GetParam()});
  double prev = 0.0;
  for (std::int64_t k = 1; k <= GetParam(); ++k) {
    const double flip = s.cumulative_flip(k);
    EXPECT_GE(flip, prev - 1e-15);
    EXPECT_LE(flip, 0.5 + 1e-12);
    prev = flip;
  }
  if (GetParam() >= 5) {
    EXPECT_NEAR(s.cumulative_flip(GetParam()), 0.5, 1e-3);
  }
}

TEST_P(ScheduleSweep, PosteriorsAreProbabilities) {
  dd::BinarySchedule s(dd::ScheduleConfig{.steps = GetParam()});
  for (std::int64_t k = 1; k <= GetParam(); ++k) {
    for (int xk = 0; xk <= 1; ++xk) {
      for (int x0 = 0; x0 <= 1; ++x0) {
        const double p = s.posterior_prob1(k, xk, x0);
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
      }
    }
  }
}

TEST_P(ScheduleSweep, FlipBetweenComposesConsistently) {
  // Qbar_to = Qbar_from * Q_{from->to}: the flip probabilities must satisfy
  // the composition rule c_to = c_from + s - 2 c_from s.
  dd::BinarySchedule s(dd::ScheduleConfig{.steps = GetParam()});
  const auto k_max = GetParam();
  for (std::int64_t from = 0; from < k_max; from += std::max<std::int64_t>(1, k_max / 7)) {
    for (std::int64_t to = from + 1; to <= k_max;
         to += std::max<std::int64_t>(1, k_max / 5)) {
      const double a = s.cumulative_flip(from);
      const double step = s.flip_between(from, to);
      const double composed = a + step - 2.0 * a * step;
      EXPECT_NEAR(composed, s.cumulative_flip(to), 1e-9)
          << "from=" << from << " to=" << to;
      EXPECT_GE(step, -1e-12);
      EXPECT_LE(step, 0.5 + 1e-12);
    }
  }
}

TEST_P(ScheduleSweep, AdjacentJumpPosteriorEqualsClassicPosterior) {
  dd::BinarySchedule s(dd::ScheduleConfig{.steps = GetParam()});
  for (std::int64_t k = 1; k <= GetParam();
       k += std::max<std::int64_t>(1, GetParam() / 9)) {
    for (int xk = 0; xk <= 1; ++xk) {
      for (int x0 = 0; x0 <= 1; ++x0) {
        EXPECT_DOUBLE_EQ(s.posterior_prob1_between(k - 1, k, xk, x0),
                         s.posterior_prob1(k, xk, x0));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(StepCounts, ScheduleSweep,
                         ::testing::Values(1, 2, 5, 10, 40, 100, 1000));

// ---- q_sample marginals -----------------------------------------------------

class QSampleSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(QSampleSweep, MarginalMatchesCumulativeFlip) {
  dd::BinarySchedule s(dd::ScheduleConfig{.steps = 20});
  const auto k = GetParam();
  dc::Rng rng(k);
  const std::int64_t n = 48;
  Tensor x0({n, 1, 8, 8}, 0.0F);
  std::vector<std::int64_t> ks(static_cast<std::size_t>(n), k);
  const Tensor xk = dd::q_sample(s, x0, ks, rng);
  const double observed = diffpattern::tensor::sum(xk) /
                          static_cast<double>(xk.numel());
  EXPECT_NEAR(observed, s.cumulative_flip(k), 0.04) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Steps, QSampleSweep,
                         ::testing::Values(1, 3, 7, 12, 20));

// ---- strided sampler --------------------------------------------------------

namespace {

du::UNetConfig micro_config() {
  du::UNetConfig cfg;
  cfg.in_channels = 1;
  cfg.out_channels = 2;
  cfg.model_channels = 8;
  cfg.channel_mult = {1, 2};
  cfg.num_res_blocks = 1;
  cfg.attention_levels = {};
  cfg.dropout = 0.0F;
  return cfg;
}

Tensor toy_batch(dc::Rng& rng, std::int64_t n) {
  Tensor x({n, 1, 4, 4}, 0.0F);
  for (std::int64_t i = 0; i < n; ++i) {
    const bool left = rng.bernoulli(0.5);
    for (std::int64_t r = 0; r < 4; ++r) {
      for (std::int64_t c = 0; c < 4; ++c) {
        x.at({i, 0, r, c}) = (left ? c < 2 : c >= 2) ? 1.0F : 0.0F;
      }
    }
  }
  return x;
}

}  // namespace

class StridedSampler : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(StridedSampler, ProducesBinaryOutputAndObservesEveryJump) {
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 12});
  du::UNet model(micro_config(), 3);
  std::vector<std::int64_t> visited;
  const auto stride = GetParam();
  Tensor s = sample_slots(
      model, schedule, 4, uniform_strides(2, stride), 9, 0, nullptr,
      [&](std::int64_t k, const Tensor&) { visited.push_back(k); });
  for (std::int64_t i = 0; i < s.numel(); ++i) {
    EXPECT_TRUE(s[i] == 0.0F || s[i] == 1.0F);
  }
  // The prior at the plan start (K_eps == K == 12 here), then one call per
  // round: K - stride, K - 2*stride, ..., clamped to 0 — the plan's length
  // + 1 calls in all.
  std::vector<std::int64_t> expected;
  for (std::int64_t k = 12; k > 0; k -= stride) {
    expected.push_back(k);
  }
  expected.push_back(0);
  EXPECT_EQ(visited, expected);
  EXPECT_EQ(static_cast<std::int64_t>(visited.size()),
            dd::plan_length(schedule, stride) + 1);
}

INSTANTIATE_TEST_SUITE_P(Strides, StridedSampler,
                         ::testing::Values(1, 2, 3, 5, 12));

TEST(StridedSampler, RejectsStrideBeyondSchedule) {
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 12});
  du::UNet model(micro_config(), 3);
  EXPECT_THROW(sample_slots(model, schedule, 4, {13}, 9, 0),
               std::invalid_argument);
}

TEST(StridedSampler, MixedStridesObserveTheUnionOfWalks) {
  // K = 12 with strides {3, 5}: slot 0 runs 12, 9, 6, 3 and slot 1 runs
  // 12, 7, 2. The observer reports the largest step still pending after
  // each round, so it sees the merged walk down to 0.
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 12});
  du::UNet model(micro_config(), 3);
  std::vector<std::int64_t> visited;
  sample_slots(model, schedule, 4, {3, 5}, 9, 0, nullptr,
               [&](std::int64_t k, const Tensor&) { visited.push_back(k); });
  EXPECT_EQ(visited, (std::vector<std::int64_t>{12, 9, 7, 6, 3, 2, 0}));
}

TEST(StridedSampler, TruncatedWalksStartAtTheChainStart) {
  // K = 20 ends its signal at K_eps = 18: the prior is observed at 18, and
  // strides {4, 10} run 18, 14, 10, 6, 2 and 18, 8 — never 20.
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 20});
  du::UNet model(micro_config(), 3);
  std::vector<std::int64_t> visited;
  std::vector<std::pair<std::int64_t, std::int64_t>> rounds;
  sample_slots(
      model, schedule, 4, {4, 10}, 9, 0,
      [&](std::int64_t k, std::int64_t batch) {
        rounds.emplace_back(k, batch);
      },
      [&](std::int64_t k, const Tensor&) { visited.push_back(k); });
  EXPECT_EQ(visited, (std::vector<std::int64_t>{18, 14, 10, 8, 6, 2, 0}));
  const std::vector<std::pair<std::int64_t, std::int64_t>> expected = {
      {18, 2}, {14, 1}, {10, 1}, {8, 1}, {6, 1}, {2, 1}};
  EXPECT_EQ(rounds, expected);
}

TEST(StridedSampler, TrainedModelStillHitsModesWithStride) {
  // The fast sampler must preserve the learned distribution reasonably: on
  // the two-mode toy task a stride of 2 should still produce mostly
  // mode-consistent columns.
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 8});
  du::UNet model(micro_config(), 21);
  diffpattern::nn::AdamConfig adam;
  adam.learning_rate = 2e-3F;
  dd::DiffusionTrainer trainer(model, schedule, dd::LossConfig{}, adam);
  dc::Rng rng(22);
  for (int it = 0; it < 220; ++it) {
    Tensor x0 = toy_batch(rng, 8);
    trainer.step(x0, rng);
  }
  Tensor samples = sample_slots(model, schedule, 4, uniform_strides(16, 2),
                                /*seed=*/23, /*stream=*/0);
  int mode_like = 0;
  for (std::int64_t i = 0; i < 16; ++i) {
    // A mode-like sample has uniform columns: count column-consistency.
    int consistent_cols = 0;
    for (std::int64_t c = 0; c < 4; ++c) {
      const float top = samples[i * 16 + c];
      bool same = true;
      for (std::int64_t r = 1; r < 4; ++r) {
        same = same && samples[i * 16 + r * 4 + c] == top;
      }
      consistent_cols += same;
    }
    mode_like += consistent_cols >= 3;
  }
  EXPECT_GE(mode_like, 9) << "strided samples lost the learned structure";
}
