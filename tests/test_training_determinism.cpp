// Training determinism: a few DiffusionTrainer steps (Eq. 9 loss, backward,
// Adam) must leave byte-identical parameters at every compute-pool size and
// on every kernel backend. The model carries attention, group norm and
// dropout, so the backward kernels of all three run under the pool. A
// pinned FNV-1a digest of the trained parameters turns silent cross-PR
// drift of the training bytes into a loud failure: a change that moves it
// changed the canonical training arithmetic, which must be an explicit,
// called-out decision (update the constant in its own commit), never a
// silent rebaseline.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/compute_pool.h"
#include "common/rng.h"
#include "diffusion/diffusion.h"
#include "tensor/simd.h"
#include "ulp_test_util.h"

namespace dd = diffpattern::diffusion;
namespace dc = diffpattern::common;
namespace du = diffpattern::unet;
namespace dt = diffpattern::tensor;
using diffpattern::tensor::Tensor;

namespace {

du::UNetConfig training_config() {
  du::UNetConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 4;
  cfg.model_channels = 16;
  cfg.channel_mult = {1, 2};
  cfg.num_res_blocks = 1;
  cfg.attention_levels = {1};
  cfg.dropout = 0.1F;
  return cfg;
}

constexpr std::int64_t kSide = 16;
constexpr std::int64_t kBatch = 4;
constexpr int kSteps = 3;

Tensor binary_batch(dc::Rng& rng) {
  Tensor x({kBatch, 2, kSide, kSide});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = rng.bernoulli(0.4) ? 1.0F : 0.0F;
  }
  return x;
}

std::uint64_t fnv1a64(std::uint64_t hash, const void* data,
                      std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Trains a fresh model for kSteps on a pool of `threads` and digests every
/// parameter, in registry order.
std::uint64_t trained_digest(std::int64_t threads) {
  EXPECT_TRUE(dc::set_global_compute_threads(threads).ok());
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 10});
  du::UNet model(training_config(), /*seed=*/2023);
  diffpattern::nn::AdamConfig adam;
  adam.learning_rate = 1e-3F;
  dd::DiffusionTrainer trainer(model, schedule, dd::LossConfig{}, adam);
  dc::Rng rng(17);
  for (int step = 0; step < kSteps; ++step) {
    const Tensor x0 = binary_batch(rng);
    trainer.step(x0, rng);
  }
  std::uint64_t hash = 1469598103934665603ULL;
  for (const auto& p : model.registry().params()) {
    const Tensor& v = p.value();
    hash = fnv1a64(hash, v.data(),
                   static_cast<std::size_t>(v.numel()) * sizeof(float));
  }
  return hash;
}

/// Pinned under the canonical (scalar) semantics; every backend and pool
/// size must reproduce it.
constexpr std::uint64_t kGoldenTrainingDigest = 0x0ade41a4c35142feULL;

}  // namespace

TEST(TrainingDeterminism, ParametersByteIdenticalAcrossPoolSizes) {
  const std::uint64_t one = trained_digest(1);
  for (const std::int64_t threads : {2, 4}) {
    EXPECT_EQ(trained_digest(threads), one)
        << "pool size " << threads << " leaked into the trained bytes";
  }
  EXPECT_EQ(one, kGoldenTrainingDigest)
      << "trained bytes drifted from the pinned golden digest";
  EXPECT_TRUE(dc::set_global_compute_threads(-1).ok());
}

TEST(TrainingDeterminism, GoldenDigestPinnedOnEveryBackend) {
  diffpattern::testutil::BackendGuard guard;
  for (const auto backend : diffpattern::testutil::supported_backends()) {
    ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
    EXPECT_EQ(trained_digest(4), kGoldenTrainingDigest)
        << "backend " << dt::kernel_backend_label(backend)
        << " drifted from the pinned training digest";
  }
  EXPECT_TRUE(dc::set_global_compute_threads(-1).ok());
}
