// Tests for q_sample, the diffusion loss, the trainer, and the sampler —
// including an end-to-end "learn a two-mode toy distribution" check.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/rng.h"
#include "diffusion/diffusion.h"
#include "sampling_test_util.h"
#include "tensor/tensor_ops.h"

namespace dd = diffpattern::diffusion;
namespace du = diffpattern::unet;
namespace dc = diffpattern::common;
using diffpattern::testutil::sample_slots;
using diffpattern::testutil::uniform_strides;
using diffpattern::tensor::Tensor;

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

/// Toy dataset over 1x4x4 binary images: two modes, "left half on" and
/// "right half on".
Tensor toy_batch(dc::Rng& rng, std::int64_t n) {
  Tensor x({n, 1, 4, 4}, 0.0F);
  for (std::int64_t i = 0; i < n; ++i) {
    const bool left = rng.bernoulli(0.5);
    for (std::int64_t r = 0; r < 4; ++r) {
      for (std::int64_t c = 0; c < 4; ++c) {
        const bool on = left ? c < 2 : c >= 2;
        x.at({i, 0, r, c}) = on ? 1.0F : 0.0F;
      }
    }
  }
  return x;
}

std::string image_signature(const Tensor& x, std::int64_t sample) {
  std::string s;
  for (std::int64_t i = 0; i < 16; ++i) {
    s.push_back(x[sample * 16 + i] != 0.0F ? '1' : '0');
  }
  return s;
}

}  // namespace

TEST(QSample, FlipsMatchCumulativeProbability) {
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 20});
  dc::Rng rng(1);
  const std::int64_t n = 64;
  Tensor x0({n, 1, 8, 8}, 0.0F);  // All zeros: flips are directly countable.
  for (std::int64_t k : {1, 5, 20}) {
    std::vector<std::int64_t> ks(static_cast<std::size_t>(n), k);
    Tensor xk = dd::q_sample(schedule, x0, ks, rng);
    const double flips = diffpattern::tensor::sum(xk);
    const double expected =
        schedule.cumulative_flip(k) * static_cast<double>(xk.numel());
    EXPECT_NEAR(flips / static_cast<double>(xk.numel()),
                expected / static_cast<double>(xk.numel()), 0.05)
        << "k=" << k;
  }
}

TEST(QSample, AtFinalStepNearlyUniform) {
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 50});
  dc::Rng rng(2);
  Tensor x0({32, 1, 8, 8}, 1.0F);
  std::vector<std::int64_t> ks(32, 50);
  Tensor xk = dd::q_sample(schedule, x0, ks, rng);
  const double ones = diffpattern::tensor::sum(xk) /
                      static_cast<double>(xk.numel());
  EXPECT_NEAR(ones, 0.5, 0.05);
}

TEST(QSample, RejectsNonBinaryInput) {
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 5});
  dc::Rng rng(3);
  Tensor x0({1, 1, 2, 2}, 0.5F);
  EXPECT_THROW(dd::q_sample(schedule, x0, {3}, rng), std::invalid_argument);
}

TEST(DiffusionLoss, FiniteAndBackpropagates) {
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 10});
  du::UNet model(micro_config(), 1);
  dc::Rng rng(4);
  Tensor x0 = toy_batch(rng, 4);
  auto result = dd::diffusion_loss(model, schedule, x0, dd::LossConfig{}, rng);
  EXPECT_TRUE(std::isfinite(result.breakdown.total));
  EXPECT_GE(result.breakdown.kl, -1e-6);  // KL is non-negative.
  EXPECT_GT(result.breakdown.cross_entropy, 0.0);
  EXPECT_NO_THROW(result.loss.backward());
}

TEST(DiffusionLoss, PerfectPredictionGivesNearZeroKl) {
  // If p_theta(x0|xk) is exactly the delta on the true x0, the KL term
  // vanishes. We emulate this by bypassing the network: compare the
  // analytic KL of q against itself through the same coefficient algebra.
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 10});
  for (std::int64_t k = 2; k <= 10; ++k) {
    for (int xk = 0; xk <= 1; ++xk) {
      for (int x0 = 0; x0 <= 1; ++x0) {
        const double q1 = schedule.posterior_prob1(k, xk, x0);
        // Network predicting x0 with certainty: p1 equals q1 -> KL == 0.
        const double a = schedule.posterior_prob1(k, xk, 1);
        const double b = schedule.posterior_prob1(k, xk, 0);
        const double p0_true = x0 == 1 ? 1.0 : 0.0;
        const double p1 = a * p0_true + b * (1.0 - p0_true);
        EXPECT_NEAR(p1, q1, 1e-12);
      }
    }
  }
}

TEST(Trainer, LossDecreasesOnToyData) {
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 8});
  du::UNet model(micro_config(), 7);
  diffpattern::nn::AdamConfig adam;
  adam.learning_rate = 2e-3F;
  dd::DiffusionTrainer trainer(model, schedule, dd::LossConfig{}, adam);
  dc::Rng rng(8);

  // Deterministic probe: same batch, same step draws, same corruption noise
  // before and after training, so the comparison isolates model improvement.
  dc::Rng probe_data_rng(100);
  const Tensor probe_batch = toy_batch(probe_data_rng, 16);
  const auto probe_ce = [&]() {
    dc::Rng probe_rng(999);
    return dd::diffusion_loss(model, schedule, probe_batch, dd::LossConfig{},
                              probe_rng)
        .breakdown.cross_entropy;
  };

  const double before = probe_ce();
  const int iters = 60;
  for (int it = 0; it < iters; ++it) {
    Tensor x0 = toy_batch(rng, 8);
    trainer.step(x0, rng);
  }
  const double after = probe_ce();
  EXPECT_EQ(trainer.steps_taken(), iters);
  EXPECT_LT(after, before * 0.85)
      << "training did not reduce the denoising CE (before=" << before
      << ", after=" << after << ")";
}

TEST(Sampler, ProducesBinaryOutputOfRequestedShape) {
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 5});
  du::UNet model(micro_config(), 3);
  Tensor s = sample_slots(model, schedule, 4, uniform_strides(3), 9, 0);
  EXPECT_EQ(s.shape(), (diffpattern::tensor::Shape{3, 1, 4, 4}));
  for (std::int64_t i = 0; i < s.numel(); ++i) {
    EXPECT_TRUE(s[i] == 0.0F || s[i] == 1.0F);
  }
}

TEST(Sampler, ObserverSeesFullChain) {
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 6});
  du::UNet model(micro_config(), 3);
  std::vector<std::int64_t> seen;
  sample_slots(model, schedule, 4, uniform_strides(1), 10, 0, nullptr,
               [&](std::int64_t k, const Tensor&) { seen.push_back(k); });
  // K, K-1, ..., 0: K+1 snapshots.
  ASSERT_EQ(seen.size(), 7U);
  EXPECT_EQ(seen.front(), 6);
  EXPECT_EQ(seen.back(), 0);
}

TEST(EndToEnd, LearnsTwoModeToyDistribution) {
  // Train the micro U-Net on the two-mode dataset, then sample: a majority
  // of samples should land exactly on one of the two modes. This is the
  // core property the paper relies on — the discrete reverse chain
  // reproduces the training distribution with naturally binary outputs.
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 8});
  du::UNet model(micro_config(), 21);
  diffpattern::nn::AdamConfig adam;
  adam.learning_rate = 2e-3F;
  dd::DiffusionTrainer trainer(model, schedule, dd::LossConfig{}, adam);
  dc::Rng rng(22);
  for (int it = 0; it < 250; ++it) {
    Tensor x0 = toy_batch(rng, 8);
    trainer.step(x0, rng);
  }

  const std::string left = "1100110011001100";
  const std::string right = "0011001100110011";
  Tensor samples = sample_slots(model, schedule, 4, uniform_strides(24),
                                /*seed=*/23, /*stream=*/0);
  int on_mode = 0;
  std::map<std::string, int> histogram;
  for (std::int64_t i = 0; i < 24; ++i) {
    const auto sig = image_signature(samples, i);
    ++histogram[sig];
    if (sig == left || sig == right) {
      ++on_mode;
    }
  }
  EXPECT_GE(on_mode, 15) << "only " << on_mode
                         << "/24 samples matched a training mode";
  // Both modes should appear (not a single-mode collapse).
  EXPECT_GE(histogram[left] + histogram[right], on_mode);
  EXPECT_GT(histogram[left], 0);
  EXPECT_GT(histogram[right], 0);
}
