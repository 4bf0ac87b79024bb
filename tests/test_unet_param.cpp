// Parameterized U-Net architecture sweep: every configuration the library
// claims to support must build, produce the right output shape, and route
// gradients into every parameter.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/ops.h"
#include "unet/unet.h"

namespace du = diffpattern::unet;
namespace nn = diffpattern::nn;
namespace dc = diffpattern::common;
using diffpattern::tensor::Tensor;

namespace {

struct UNetCase {
  std::vector<std::int64_t> channel_mult;
  std::int64_t num_res_blocks;
  std::set<std::int64_t> attention_levels;
  std::int64_t in_channels;
  std::int64_t spatial;
};

Tensor random_binary(dc::Rng& rng, diffpattern::tensor::Shape shape) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.bernoulli(0.5) ? 1.0F : 0.0F;
  }
  return t;
}

}  // namespace

class UNetArchSweep : public ::testing::TestWithParam<UNetCase> {};

TEST_P(UNetArchSweep, ForwardShapeAndFullGradientCoverage) {
  const auto& param = GetParam();
  du::UNetConfig cfg;
  cfg.in_channels = param.in_channels;
  cfg.out_channels = 2 * param.in_channels;
  cfg.model_channels = 8;
  cfg.channel_mult = param.channel_mult;
  cfg.num_res_blocks = param.num_res_blocks;
  cfg.attention_levels = param.attention_levels;
  cfg.dropout = 0.0F;
  du::UNet model(cfg, 1);
  dc::Rng rng(2);
  Tensor x = random_binary(rng, {2, param.in_channels, param.spatial,
                                 param.spatial});
  auto y = model.forward(x, {1, 5}, /*training=*/true, rng);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 2 * param.in_channels);
  EXPECT_EQ(y.dim(2), param.spatial);
  EXPECT_EQ(y.dim(3), param.spatial);

  for (auto p : model.registry().params()) {
    p.zero_grad();
  }
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
  EXPECT_EQ(touched, model.registry().size())
      << "some parameters receive no gradient";
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, UNetArchSweep,
    ::testing::Values(
        UNetCase{{1}, 1, {}, 1, 8},            // Single level, no attention.
        UNetCase{{1, 2}, 1, {}, 4, 8},         // Two levels.
        UNetCase{{1, 2}, 2, {1}, 4, 8},        // Paper-style attention @L1.
        UNetCase{{1, 2, 2}, 1, {1}, 4, 8},     // Three levels.
        UNetCase{{1, 2, 2}, 1, {0, 1, 2}, 1, 8},  // Attention everywhere.
        UNetCase{{2, 4}, 2, {}, 2, 4}));       // Wide multipliers, tiny map.
