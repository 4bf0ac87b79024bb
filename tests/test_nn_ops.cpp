// Behavioural tests for autograd mechanics, module construction,
// checkpointing, and op forward values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "common/rng.h"
#include "nn/autograd.h"
#include "nn/checkpoint.h"
#include "nn/modules.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "tensor/tensor_ops.h"

namespace nn = diffpattern::nn;
namespace dc = diffpattern::common;
using diffpattern::tensor::Tensor;
using nn::Var;

TEST(Autograd, BackwardRequiresScalar) {
  Var x(Tensor({2, 2}, 1.0F), true);
  Var y = nn::scale(x, 2.0F);
  EXPECT_THROW(y.backward(), std::invalid_argument);
}

TEST(Autograd, NoGradPathSkipsGraph) {
  Var x(Tensor({2}, 1.0F), /*requires_grad=*/false);
  Var y = nn::scale(x, 3.0F);
  EXPECT_FALSE(y.requires_grad());
}

TEST(Autograd, GradAccumulatesAcrossBackwards) {
  Var x(Tensor({1}, 2.0F), true);
  Var loss = nn::sum_all(nn::mul(x, x));
  loss.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 4.0F);
  // A second backward on a fresh graph accumulates.
  Var loss2 = nn::sum_all(nn::mul(x, x));
  loss2.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 8.0F);
  x.zero_grad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0F);
}

TEST(Autograd, DetachBlocksGradient) {
  Var x(Tensor({2}, 3.0F), true);
  Var d = nn::detach(x);
  EXPECT_FALSE(d.requires_grad());
  Var y(Tensor({2}, 1.0F), true);
  Var loss = nn::sum_all(nn::mul(d, y));
  loss.backward();
  EXPECT_FLOAT_EQ(y.grad()[0], 3.0F);
}

TEST(Ops, SigmoidMatchesClosedForm) {
  Var x(Tensor::from_data({3}, {-100.0F, 0.0F, 100.0F}));
  Var s = nn::sigmoid(x);
  EXPECT_NEAR(s.value()[0], 0.0F, 1e-6F);
  EXPECT_NEAR(s.value()[1], 0.5F, 1e-6F);
  EXPECT_NEAR(s.value()[2], 1.0F, 1e-6F);
}

TEST(Ops, SoftplusStableForLargeInputs) {
  Var x(Tensor::from_data({2}, {100.0F, -100.0F}));
  Var y = nn::softplus(x);
  EXPECT_NEAR(y.value()[0], 100.0F, 1e-3F);
  EXPECT_NEAR(y.value()[1], 0.0F, 1e-3F);
}

TEST(Ops, DropoutIdentityInEval) {
  dc::Rng rng(1);
  Var x(Tensor({4, 4}, 1.0F), true);
  Var y = nn::dropout(x, 0.5F, /*training=*/false, rng);
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_FLOAT_EQ(y.value()[i], 1.0F);
  }
}

TEST(Ops, DropoutScalesSurvivors) {
  dc::Rng rng(2);
  Var x(Tensor({1000}, 1.0F), true);
  Var y = nn::dropout(x, 0.25F, /*training=*/true, rng);
  int zeros = 0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    const float v = y.value()[i];
    if (v == 0.0F) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0F / 0.75F, 1e-5F);
    }
  }
  EXPECT_NEAR(zeros, 250, 60);
}

TEST(Ops, UpsampleValues) {
  Var x(Tensor::from_data({1, 1, 2, 2}, {1, 2, 3, 4}));
  Var y = nn::upsample_nearest2(x);
  ASSERT_EQ(y.dim(2), 4);
  EXPECT_FLOAT_EQ(y.value().at({0, 0, 0, 0}), 1.0F);
  EXPECT_FLOAT_EQ(y.value().at({0, 0, 0, 1}), 1.0F);
  EXPECT_FLOAT_EQ(y.value().at({0, 0, 3, 3}), 4.0F);
}

namespace {

/// The interior of each plane of a bordered [N, C, H+2p, W+2p] tensor is
/// `plain` bit for bit, and every border entry is +0.
::testing::AssertionResult bordered_holds(const Tensor& bordered,
                                          const Tensor& plain,
                                          std::int64_t pad) {
  const auto planes = plain.dim(0) * plain.dim(1);
  const auto h = plain.dim(2);
  const auto w = plain.dim(3);
  const auto wp = w + 2 * pad;
  if (bordered.numel() != planes * (h + 2 * pad) * wp) {
    return ::testing::AssertionFailure() << "shape " << bordered.shape_string();
  }
  for (std::int64_t p = 0; p < planes; ++p) {
    for (std::int64_t y = 0; y < h + 2 * pad; ++y) {
      for (std::int64_t x = 0; x < wp; ++x) {
        const bool inside = y >= pad && y < h + pad && x >= pad && x < w + pad;
        const float got = bordered[(p * (h + 2 * pad) + y) * wp + x];
        const float want =
            inside ? plain[(p * h + y - pad) * w + x - pad] : 0.0F;
        if (std::memcmp(&got, &want, sizeof(float)) != 0) {
          return ::testing::AssertionFailure()
                 << "plane " << p << " (" << y << ", " << x << "): " << got
                 << " vs " << want;
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

// group_norm_silu and upsample_nearest2 into a conv's input: with a graph
// they are the composed ops; without one the bytes are the same, written
// with the zero border in place inside a NoGradGuard when the conv pads
// and plain otherwise. 3 samples x 3 groups = 9 groups run as one block of
// eight moment rows and one of one.
TEST(Ops, GroupNormSiluAndUpsampleWriteTheConvInput) {
  dc::Rng rng(71);
  Tensor xt({3, 6, 5, 7});
  for (std::int64_t i = 0; i < xt.numel(); ++i) {
    xt[i] = static_cast<float>(rng.normal());
  }
  Tensor gt({6});
  Tensor bt({6});
  for (std::int64_t i = 0; i < 6; ++i) {
    gt[i] = static_cast<float>(rng.normal());
    bt[i] = static_cast<float>(rng.normal());
  }
  const Var x(xt, true);
  const Var gamma(gt, true);
  const Var beta(bt, true);
  const Tensor want =
      nn::silu(nn::group_norm(x, gamma, beta, 3)).value();
  const Tensor up_want = nn::upsample_nearest2(x).value();
  constexpr std::int64_t pad1 = 1;
  constexpr std::int64_t pad0 = 0;

  // A graph: the composed ops, plain.
  const auto graph = nn::group_norm_silu(x, gamma, beta, 3, pad1);
  EXPECT_FALSE(graph.bordered);
  EXPECT_TRUE(graph.x.requires_grad());
  EXPECT_TRUE(bordered_holds(graph.x.value(), want, 0));
  // No graph outside a NoGradGuard (constant operands): fused, plain.
  const Var xc(xt);
  const Var gc(gt);
  const Var bc(bt);
  const auto fused_plain = nn::group_norm_silu(xc, gc, bc, 3, pad1);
  EXPECT_FALSE(fused_plain.bordered);
  EXPECT_TRUE(bordered_holds(fused_plain.x.value(), want, 0));
  EXPECT_FALSE(nn::upsample_nearest2(xc, pad1).bordered);

  const nn::NoGradGuard no_grad;
  const auto fused = nn::group_norm_silu(x, gamma, beta, 3, pad1);
  EXPECT_TRUE(fused.bordered);
  EXPECT_TRUE(bordered_holds(fused.x.value(), want, 1));
  const auto unpadded = nn::group_norm_silu(x, gamma, beta, 3, pad0);
  EXPECT_FALSE(unpadded.bordered);
  EXPECT_TRUE(bordered_holds(unpadded.x.value(), want, 0));
  const auto up = nn::upsample_nearest2(x, pad1);
  EXPECT_TRUE(up.bordered);
  EXPECT_TRUE(bordered_holds(up.x.value(), up_want, 1));
  EXPECT_FALSE(nn::upsample_nearest2(x, pad0).bordered);
}

TEST(Ops, ConcatSliceRoundTrip) {
  Var a(Tensor({1, 2, 2, 2}, 1.0F));
  Var b(Tensor({1, 3, 2, 2}, 2.0F));
  Var c = nn::concat_channels(a, b);
  ASSERT_EQ(c.dim(1), 5);
  Var back = nn::slice_channels(c, 2, 3);
  for (std::int64_t i = 0; i < back.numel(); ++i) {
    EXPECT_FLOAT_EQ(back.value()[i], 2.0F);
  }
}

// Every permutation of a rank-4 tensor with distinct odd dims (and a
// size-1 axis) against the index formula out[o] = x[sum_d o_d *
// stride(dims[d])], plus the rank-1 identity.
TEST(Ops, PermuteMatchesIndexFormula) {
  const std::vector<std::int64_t> shape = {3, 1, 5, 2};
  Tensor x({3, 1, 5, 2});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(i);
  }
  const std::vector<std::int64_t> in_stride = {10, 10, 2, 1};
  std::vector<std::int64_t> dims = {0, 1, 2, 3};
  do {
    const Tensor y = nn::permute(Var(x), dims).value();
    for (std::size_t d = 0; d < 4; ++d) {
      ASSERT_EQ(y.dim(static_cast<std::int64_t>(d)), shape[dims[d]]);
    }
    std::int64_t flat = 0;
    for (std::int64_t i0 = 0; i0 < y.dim(0); ++i0) {
      for (std::int64_t i1 = 0; i1 < y.dim(1); ++i1) {
        for (std::int64_t i2 = 0; i2 < y.dim(2); ++i2) {
          for (std::int64_t i3 = 0; i3 < y.dim(3); ++i3) {
            const auto src = i0 * in_stride[dims[0]] +
                             i1 * in_stride[dims[1]] +
                             i2 * in_stride[dims[2]] + i3 * in_stride[dims[3]];
            EXPECT_EQ(y[flat++], x[src]);
          }
        }
      }
    }
  } while (std::next_permutation(dims.begin(), dims.end()));
  Tensor v({4});
  for (std::int64_t i = 0; i < 4; ++i) {
    v[i] = static_cast<float>(i) - 1.5F;
  }
  const Tensor w = nn::permute(Var(v), {0}).value();
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(w[i], v[i]);
  }
}

TEST(Modules, RegistryRejectsDuplicates) {
  nn::ParamRegistry reg;
  reg.add("w", Tensor({2}, 0.0F));
  EXPECT_THROW(reg.add("w", Tensor({2}, 0.0F)), std::invalid_argument);
}

TEST(Modules, LinearShapes) {
  nn::ParamRegistry reg;
  dc::Rng rng(3);
  nn::Linear lin(reg, rng, "lin", 4, 6);
  ASSERT_EQ(reg.size(), 2U);
  EXPECT_EQ(reg.params()[0].numel() + reg.params()[1].numel(), 4 * 6 + 6);
  Var x(Tensor({2, 4}, 1.0F));
  Var y = lin(x);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 6);
}

TEST(Modules, Conv2dShapes) {
  nn::ParamRegistry reg;
  dc::Rng rng(4);
  nn::Conv2d conv(reg, rng, "conv", 3, 8, 3, /*stride=*/2, /*padding=*/1);
  Var x(Tensor({2, 3, 8, 8}, 0.5F));
  Var y = conv(x);
  EXPECT_EQ(y.dim(1), 8);
  EXPECT_EQ(y.dim(2), 4);
  EXPECT_EQ(y.dim(3), 4);
}

TEST(Modules, GroupNormNormalizes) {
  nn::ParamRegistry reg;
  dc::Rng rng(5);
  nn::GroupNorm gn(reg, "gn", 4, 2);
  Tensor x({2, 4, 3, 3});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.normal(5.0, 2.0));
  }
  Var y = gn(Var(x));
  // With gamma=1, beta=0 each (n, group) slice has ~zero mean, unit var.
  const auto plane = 9;
  const auto cg = 2;
  for (std::int64_t n = 0; n < 2; ++n) {
    for (std::int64_t g = 0; g < 2; ++g) {
      double mean = 0.0, var = 0.0;
      for (std::int64_t c = 0; c < cg; ++c) {
        for (std::int64_t p = 0; p < plane; ++p) {
          const float v = y.value().at({n, g * cg + c, p / 3, p % 3});
          mean += v;
          var += v * v;
        }
      }
      const double m = cg * plane;
      mean /= m;
      var = var / m - mean * mean;
      EXPECT_NEAR(mean, 0.0, 1e-4);
      EXPECT_NEAR(var, 1.0, 1e-2);
    }
  }
}

TEST(Modules, PickGroupCountDivides) {
  EXPECT_EQ(nn::pick_group_count(32), 8);
  EXPECT_EQ(nn::pick_group_count(12), 6);
  EXPECT_EQ(nn::pick_group_count(7), 7);
  EXPECT_EQ(nn::pick_group_count(1), 1);
}

TEST(Optim, AdamReducesQuadraticLoss) {
  // Minimize ||x - target||^2; Adam should converge close to the target.
  nn::ParamRegistry reg;
  Var x = reg.add("x", Tensor({4}, 0.0F));
  Tensor target = Tensor::from_data({4}, {1.0F, -2.0F, 0.5F, 3.0F});
  nn::AdamConfig cfg;
  cfg.learning_rate = 0.05F;
  cfg.grad_clip_norm = 0.0F;
  nn::Adam opt(reg.params(), cfg);
  for (int it = 0; it < 400; ++it) {
    opt.zero_grad();
    Var diff = nn::add_const(x, diffpattern::tensor::scale(target, -1.0F));
    Var loss = nn::sum_all(nn::mul(diff, diff));
    loss.backward();
    opt.step();
  }
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(x.value()[i], target[i], 0.05F);
  }
}

TEST(Optim, GradClipBoundsStep) {
  nn::ParamRegistry reg;
  Var x = reg.add("x", Tensor({1}, 0.0F));
  nn::AdamConfig cfg;
  cfg.grad_clip_norm = 1.0F;
  nn::Adam opt(reg.params(), cfg);
  opt.zero_grad();
  Var loss = nn::sum_all(nn::scale(x, 1e6F));
  loss.backward();
  const double norm = opt.step();
  EXPECT_NEAR(norm, 1e6, 1e2);
}

TEST(Checkpoint, SaveLoadRoundTrip) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "dp_test_ckpt.bin";
  dc::Rng rng(6);
  nn::ParamRegistry reg1;
  nn::Linear lin1(reg1, rng, "lin", 3, 2);
  nn::save_checkpoint(reg1, path);
  EXPECT_TRUE(nn::is_checkpoint_file(path));

  dc::Rng rng2(99);  // Different init values.
  nn::ParamRegistry reg2;
  nn::Linear lin2(reg2, rng2, "lin", 3, 2);
  nn::load_checkpoint(reg2, path);
  for (std::size_t p = 0; p < reg1.size(); ++p) {
    const Tensor& a = reg1.params()[p].value();
    const Tensor& b = reg2.params()[p].value();
    for (std::int64_t i = 0; i < a.numel(); ++i) {
      EXPECT_FLOAT_EQ(a[i], b[i]);
    }
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsMismatchedArchitecture) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "dp_test_ckpt2.bin";
  dc::Rng rng(7);
  nn::ParamRegistry reg1;
  nn::Linear lin1(reg1, rng, "lin", 3, 2);
  nn::save_checkpoint(reg1, path);

  nn::ParamRegistry reg2;
  nn::Linear lin2(reg2, rng, "other", 3, 2);
  EXPECT_THROW(nn::load_checkpoint(reg2, path), std::invalid_argument);

  nn::ParamRegistry reg3;
  nn::Linear lin3(reg3, rng, "lin", 4, 2);
  EXPECT_THROW(nn::load_checkpoint(reg3, path), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileThrows) {
  nn::ParamRegistry reg;
  reg.add("x", Tensor({1}, 0.0F));
  EXPECT_THROW(nn::load_checkpoint(reg, "/nonexistent/path.bin"),
               std::runtime_error);
  EXPECT_FALSE(nn::is_checkpoint_file("/nonexistent/path.bin"));
}
