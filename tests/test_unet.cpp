#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/compute_pool.h"
#include "common/rng.h"
#include "nn/checkpoint.h"
#include "nn/optim.h"
#include "tensor/arena.h"
#include "ulp_test_util.h"
#include "unet/unet.h"

namespace du = diffpattern::unet;
namespace nn = diffpattern::nn;
namespace dc = diffpattern::common;
namespace dt = diffpattern::tensor;
using diffpattern::tensor::Tensor;

namespace {

du::UNetConfig tiny_config() {
  du::UNetConfig cfg;
  cfg.in_channels = 4;
  cfg.out_channels = 8;
  cfg.model_channels = 8;
  cfg.channel_mult = {1, 2};
  cfg.num_res_blocks = 1;
  cfg.attention_levels = {1};
  cfg.dropout = 0.0F;
  return cfg;
}

Tensor random_binary(dc::Rng& rng, diffpattern::tensor::Shape shape) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.bernoulli(0.5) ? 1.0F : 0.0F;
  }
  return t;
}

}  // namespace

TEST(TimeEmbedding, ShapeAndRange) {
  auto emb = du::sinusoidal_time_embedding({1, 50, 999}, 16);
  EXPECT_EQ(emb.shape(), (diffpattern::tensor::Shape{3, 16}));
  for (std::int64_t i = 0; i < emb.numel(); ++i) {
    EXPECT_LE(std::abs(emb[i]), 1.0F);
  }
}

TEST(TimeEmbedding, DistinctStepsDistinctEmbeddings) {
  auto emb = du::sinusoidal_time_embedding({3, 700}, 32);
  double diff = 0.0;
  for (std::int64_t j = 0; j < 32; ++j) {
    diff += std::abs(emb.at({0, j}) - emb.at({1, j}));
  }
  EXPECT_GT(diff, 0.5);
}

TEST(TimeEmbedding, RejectsOddDim) {
  EXPECT_THROW(du::sinusoidal_time_embedding({1}, 7), std::invalid_argument);
}

TEST(UNet, ForwardShape) {
  du::UNet model(tiny_config(), /*seed=*/1);
  dc::Rng rng(2);
  Tensor x = random_binary(rng, {2, 4, 8, 8});
  auto y = model.forward(x, {3, 7}, /*training=*/false, rng);
  EXPECT_EQ(y.shape(), (diffpattern::tensor::Shape{2, 8, 8, 8}));
}

TEST(UNet, RejectsBadInputs) {
  du::UNet model(tiny_config(), 1);
  dc::Rng rng(2);
  Tensor x = random_binary(rng, {2, 4, 8, 8});
  EXPECT_THROW(model.forward(x, {3}, false, rng), std::invalid_argument);
  Tensor bad_channels = random_binary(rng, {2, 3, 8, 8});
  EXPECT_THROW(model.forward(bad_channels, {3, 7}, false, rng),
               std::invalid_argument);
  // 5 is not divisible by 2^(levels-1) = 2.
  Tensor bad_size = random_binary(rng, {1, 4, 5, 5});
  EXPECT_THROW(model.forward(bad_size, {3}, false, rng),
               std::invalid_argument);
  // The width is checked by the same rule, before the encoder runs (not
  // by a channel concat deep in the decoder).
  Tensor bad_width = random_binary(rng, {1, 4, 8, 5});
  try {
    model.forward(bad_width, {3}, false, rng);
    ADD_FAILURE() << "width 5 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("width 5"), std::string::npos)
        << e.what();
  }
  // A non-square input whose width is divisible still runs.
  Tensor wide = random_binary(rng, {1, 4, 8, 6});
  EXPECT_EQ(model.forward(wide, {3}, false, rng).shape(),
            (diffpattern::tensor::Shape{1, 8, 8, 6}));
}

// The no-grad forward writes each padded conv's input with its zero border
// in place and adds the time embedding and residuals in the conv
// epilogues; a forward with grad enabled (training = false) runs the
// composed ops. Their logits must be the same bytes at every batch shape,
// backend and thread count, inside an ArenaScope and without one. The 8x8
// input reads the bordered input in place at 8x8 and gathers panels at
// 4x4; the 8x6 input gathers at both levels and, at 4x3, accumulates strips
// that span samples in the accumulator block.
TEST(UNet, InferenceForwardMatchesGraphForward) {
  diffpattern::testutil::BackendGuard backend_guard;
  du::UNet model(tiny_config(), /*seed=*/11);
  dc::Rng rng(12);
  // Biases start at 0 and GroupNorm at gamma 1, beta 0, which would hide a
  // bias added after the epilogue term: move every parameter off its init.
  for (nn::Var param : model.registry().params()) {  // Shares the node.
    Tensor& value = param.mutable_value();
    for (std::int64_t i = 0; i < value.numel(); ++i) {
      value[i] += 0.1F * static_cast<float>(rng.normal());
    }
  }
  for (const auto backend : diffpattern::testutil::supported_backends()) {
    ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
    for (const std::int64_t threads : {1, 2, 4}) {
      ASSERT_TRUE(dc::set_global_compute_threads(threads).ok());
      for (const bool pooled : {true, false}) {
        for (const std::int64_t batch : {1, 3, 8}) {
          for (const std::int64_t width : {8, 6}) {
            const Tensor x = random_binary(rng, {batch, 4, 8, width});
            std::vector<std::int64_t> ks;
            for (std::int64_t i = 0; i < batch; ++i) {
              ks.push_back(1 + 7 * i);
            }
            const Tensor want = model.forward(x, ks, false, rng).value();
            const nn::NoGradGuard no_grad;
            // Twice: pooled, the first forward records the arena plan and
            // the second runs on recycled storage.
            for (int rep = 0; rep < 2; ++rep) {
              std::optional<dt::ArenaScope> scope;
              if (pooled) {
                scope.emplace(model.plan_cache(), x.shape());
              }
              const Tensor got = model.forward(x, ks, false, rng).value();
              ASSERT_TRUE(got.same_shape(want));
              EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                    static_cast<std::size_t>(want.numel()) *
                                        sizeof(float)),
                        0)
                  << dt::kernel_backend_label(backend) << " threads "
                  << threads << " pooled " << pooled << " batch " << batch
                  << " width " << width << " rep " << rep;
            }
          }
        }
      }
    }
  }
  EXPECT_TRUE(dc::set_global_compute_threads(-1).ok());
}

TEST(UNet, TimeStepChangesOutput) {
  du::UNet model(tiny_config(), 1);
  dc::Rng rng(3);
  Tensor x = random_binary(rng, {1, 4, 8, 8});
  const auto y1 = model.forward(x, {1}, false, rng).value();
  const auto y2 = model.forward(x, {40}, false, rng).value();
  double diff = 0.0;
  for (std::int64_t i = 0; i < y1.numel(); ++i) {
    diff += std::abs(y1[i] - y2[i]);
  }
  EXPECT_GT(diff, 1e-3);
}

TEST(UNet, DeterministicInEvalMode) {
  du::UNet model(tiny_config(), 1);
  dc::Rng rng(4);
  Tensor x = random_binary(rng, {1, 4, 8, 8});
  const auto y1 = model.forward(x, {5}, false, rng).value();
  const auto y2 = model.forward(x, {5}, false, rng).value();
  for (std::int64_t i = 0; i < y1.numel(); ++i) {
    EXPECT_FLOAT_EQ(y1[i], y2[i]);
  }
}

TEST(UNet, GradientsReachAllParameters) {
  du::UNet model(tiny_config(), 1);
  dc::Rng rng(5);
  Tensor x = random_binary(rng, {1, 4, 8, 8});
  for (auto p : model.registry().params()) {  // Vars are shared handles.
    p.zero_grad();
  }
  auto y = model.forward(x, {5}, /*training=*/true, rng);
  nn::sum_all(nn::mul(y, y)).backward();
  std::size_t touched = 0;
  for (const auto& p : model.registry().params()) {
    const auto& g = p.grad();
    for (std::int64_t i = 0; i < g.numel(); ++i) {
      if (g[i] != 0.0F) {
        ++touched;
        break;
      }
    }
  }
  // Every parameter tensor should receive some gradient signal.
  EXPECT_EQ(touched, model.registry().size());
}

TEST(UNet, PaperConfigIsConstructible) {
  // The full DAC-2023 configuration (16x32x32 input, channels
  // [128, 256, 256, 256], attention at 16x16). Construction allocates ~30M
  // parameters' worth of tensors; we only verify wiring, not a forward pass.
  du::UNetConfig cfg;
  cfg.in_channels = 16;
  cfg.out_channels = 32;
  cfg.model_channels = 128;
  cfg.channel_mult = {1, 2, 2, 2};
  cfg.num_res_blocks = 2;
  cfg.attention_levels = {1};
  du::UNet model(cfg, 1);
  std::int64_t parameters = 0;
  for (const auto& p : model.registry().params()) {
    parameters += p.numel();
  }
  EXPECT_GT(parameters, 10'000'000);
}

TEST(UNet, LogitHelpers) {
  dc::Rng rng(6);
  Tensor logits({1, 4, 2, 2});
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    logits[i] = static_cast<float>(rng.normal());
  }
  nn::Var lv(logits);
  auto d = du::logit_difference(lv, 2);
  auto p = du::logits_to_prob1(lv, 2);
  EXPECT_EQ(d.shape(), (diffpattern::tensor::Shape{1, 2, 2, 2}));
  for (std::int64_t i = 0; i < d.numel(); ++i) {
    const float expect_d = logits[8 + i] - logits[i];
    EXPECT_NEAR(d.value()[i], expect_d, 1e-5F);
    EXPECT_NEAR(p.value()[i], 1.0F / (1.0F + std::exp(-expect_d)), 1e-5F);
  }
}

TEST(UNet, CheckpointRoundTripThroughRegistry) {
  const std::string path = "/tmp/dp_unet_ckpt_test.bin";
  du::UNet a(tiny_config(), 11);
  nn::save_checkpoint(a.registry(), path);
  du::UNet b(tiny_config(), 99);
  nn::load_checkpoint(b.registry(), path);
  dc::Rng rng(7);
  Tensor x = random_binary(rng, {1, 4, 8, 8});
  const auto ya = a.forward(x, {3}, false, rng).value();
  const auto yb = b.forward(x, {3}, false, rng).value();
  for (std::int64_t i = 0; i < ya.numel(); ++i) {
    EXPECT_FLOAT_EQ(ya[i], yb[i]);
  }
  std::remove(path.c_str());
}
