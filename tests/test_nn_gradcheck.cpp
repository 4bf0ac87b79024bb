// Numerical gradient checks for every differentiable op.
//
// For each op we build a scalar loss L(theta) = sum(w ⊙ f(theta)) with a
// fixed random weighting w (so the gradient is not trivially uniform),
// compare autograd gradients against central differences, and require
// agreement to a relative tolerance appropriate for float32.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/rng.h"
#include "nn/autograd.h"
#include "nn/ops.h"

namespace nn = diffpattern::nn;
namespace dc = diffpattern::common;
using diffpattern::tensor::Shape;
using diffpattern::tensor::Tensor;
using nn::Var;

namespace {

Tensor random_tensor(dc::Rng& rng, Shape shape, double scale = 1.0) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, scale));
  }
  return t;
}

/// Weighted-sum loss so each output element has a distinct gradient path.
Var weighted_sum(const Var& y, const Tensor& w) {
  return nn::sum_all(nn::mul_const(y, w));
}

/// Checks d(loss)/d(inputs[i]) for every input against central differences.
void grad_check(const std::function<Var(const std::vector<Var>&)>& fn,
                std::vector<Tensor> inputs, double eps = 1e-3,
                double tol = 2e-2) {
  // Analytic gradients.
  std::vector<Var> vars;
  vars.reserve(inputs.size());
  for (auto& t : inputs) {
    vars.emplace_back(t, /*requires_grad=*/true);
  }
  Var loss = fn(vars);
  ASSERT_EQ(loss.numel(), 1);
  loss.backward();

  for (std::size_t vi = 0; vi < vars.size(); ++vi) {
    const Tensor analytic = vars[vi].grad();
    for (std::int64_t i = 0; i < inputs[vi].numel(); ++i) {
      const float saved = inputs[vi][i];
      inputs[vi][i] = saved + static_cast<float>(eps);
      std::vector<Var> vp;
      for (const auto& t : inputs) vp.emplace_back(t, false);
      const double lp = fn(vp).value()[0];
      inputs[vi][i] = saved - static_cast<float>(eps);
      std::vector<Var> vm;
      for (const auto& t : inputs) vm.emplace_back(t, false);
      const double lm = fn(vm).value()[0];
      inputs[vi][i] = saved;
      const double numeric = (lp - lm) / (2.0 * eps);
      const double a = analytic[i];
      const double denom = std::max({std::abs(a), std::abs(numeric), 1.0});
      EXPECT_NEAR(a / denom, numeric / denom, tol)
          << "input " << vi << " element " << i;
    }
  }
}

}  // namespace

TEST(GradCheck, AddSubMulScale) {
  dc::Rng rng(1);
  Tensor w = random_tensor(rng, {2, 3});
  grad_check(
      [&](const std::vector<Var>& v) {
        Var y = nn::add(v[0], v[1]);
        y = nn::sub(y, nn::scale(v[1], 0.5F));
        y = nn::mul(y, v[0]);
        y = nn::add_scalar(y, 0.3F);
        return weighted_sum(y, w);
      },
      {random_tensor(rng, {2, 3}), random_tensor(rng, {2, 3})});
}

TEST(GradCheck, ConstOps) {
  dc::Rng rng(2);
  Tensor w = random_tensor(rng, {4});
  Tensor c1 = random_tensor(rng, {4});
  Tensor c2 = random_tensor(rng, {4});
  grad_check(
      [&](const std::vector<Var>& v) {
        Var y = nn::mul_const(v[0], c1);
        y = nn::add_const(y, c2);
        return weighted_sum(y, w);
      },
      {random_tensor(rng, {4})});
}

TEST(GradCheck, ActivationsSmooth) {
  dc::Rng rng(3);
  Tensor w = random_tensor(rng, {3, 3});
  for (auto* op : {&nn::sigmoid, &nn::silu, &nn::gelu, &nn::softplus}) {
    grad_check(
        [&](const std::vector<Var>& v) { return weighted_sum((*op)(v[0]), w); },
        {random_tensor(rng, {3, 3})});
  }
}

TEST(GradCheck, ReluAwayFromKink) {
  dc::Rng rng(4);
  Tensor x = random_tensor(rng, {10});
  // Keep inputs away from 0 where the numerical derivative is invalid.
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (std::abs(x[i]) < 0.05F) {
      x[i] = 0.2F;
    }
  }
  Tensor w = random_tensor(rng, {10});
  grad_check(
      [&](const std::vector<Var>& v) { return weighted_sum(nn::relu(v[0]), w); },
      {x});
}

TEST(GradCheck, LogClamped) {
  dc::Rng rng(5);
  Tensor x({6});
  for (std::int64_t i = 0; i < 6; ++i) {
    x[i] = 0.2F + static_cast<float>(rng.uniform(0.0, 2.0));
  }
  Tensor w = random_tensor(rng, {6});
  grad_check(
      [&](const std::vector<Var>& v) {
        return weighted_sum(nn::log_clamped(v[0]), w);
      },
      {x});
}

TEST(GradCheck, Linear) {
  dc::Rng rng(6);
  Tensor w2 = random_tensor(rng, {3, 5});
  grad_check(
      [&](const std::vector<Var>& v) {
        return weighted_sum(nn::linear(v[0], v[1], v[2]), w2);
      },
      {random_tensor(rng, {3, 4}), random_tensor(rng, {5, 4}),
       random_tensor(rng, {5})});
}

TEST(GradCheck, Bmm) {
  dc::Rng rng(7);
  Tensor w = random_tensor(rng, {2, 2, 4});
  grad_check(
      [&](const std::vector<Var>& v) {
        return weighted_sum(nn::bmm(v[0], v[1]), w);
      },
      {random_tensor(rng, {2, 2, 3}), random_tensor(rng, {2, 3, 4})});
}

TEST(GradCheck, Conv2dStridePadding) {
  dc::Rng rng(8);
  // 2 samples, 2 in channels, 3 out channels, 3x3 kernel, stride 2, pad 1.
  Tensor w = random_tensor(rng, {2, 3, 3, 2});
  grad_check(
      [&](const std::vector<Var>& v) {
        Var y = nn::conv2d(v[0], v[1], v[2], /*stride=*/2, /*padding=*/1);
        return weighted_sum(y, w);
      },
      {random_tensor(rng, {2, 2, 5, 4}), random_tensor(rng, {3, 2, 3, 3}),
       random_tensor(rng, {3})});
}

TEST(GradCheck, GroupNorm) {
  dc::Rng rng(9);
  Tensor w = random_tensor(rng, {2, 4, 3, 2});
  grad_check(
      [&](const std::vector<Var>& v) {
        Var y = nn::group_norm(v[0], v[1], v[2], /*groups=*/2);
        return weighted_sum(y, w);
      },
      {random_tensor(rng, {2, 4, 3, 2}), random_tensor(rng, {4}),
       random_tensor(rng, {4})},
      1e-3, 3e-2);
}

TEST(GradCheck, LayerNorm) {
  dc::Rng rng(10);
  Tensor w = random_tensor(rng, {3, 6});
  grad_check(
      [&](const std::vector<Var>& v) {
        Var y = nn::layer_norm(v[0], v[1], v[2]);
        return weighted_sum(y, w);
      },
      {random_tensor(rng, {3, 6}), random_tensor(rng, {6}),
       random_tensor(rng, {6})},
      1e-3, 3e-2);
}

TEST(GradCheck, SoftmaxLast) {
  dc::Rng rng(11);
  Tensor w = random_tensor(rng, {2, 5});
  grad_check(
      [&](const std::vector<Var>& v) {
        return weighted_sum(nn::softmax_last(v[0]), w);
      },
      {random_tensor(rng, {2, 5})});
}

TEST(GradCheck, ShapeOps) {
  dc::Rng rng(12);
  Tensor w = random_tensor(rng, {6, 2});
  grad_check(
      [&](const std::vector<Var>& v) {
        Var y = nn::reshape(v[0], {6, 2});
        return weighted_sum(y, w);
      },
      {random_tensor(rng, {3, 4})});

  Tensor w2 = random_tensor(rng, {4, 3, 2});
  grad_check(
      [&](const std::vector<Var>& v) {
        Var y = nn::permute(v[0], {2, 1, 0});
        return weighted_sum(y, w2);
      },
      {random_tensor(rng, {2, 3, 4})});
}

TEST(GradCheck, SliceAndConcatChannels) {
  dc::Rng rng(13);
  Tensor w = random_tensor(rng, {2, 2, 2, 2});
  grad_check(
      [&](const std::vector<Var>& v) {
        Var y = nn::slice_channels(v[0], 1, 2);
        return weighted_sum(y, w);
      },
      {random_tensor(rng, {2, 4, 2, 2})});

  Tensor w2 = random_tensor(rng, {2, 5, 2, 2});
  grad_check(
      [&](const std::vector<Var>& v) {
        Var y = nn::concat_channels(v[0], v[1]);
        return weighted_sum(y, w2);
      },
      {random_tensor(rng, {2, 2, 2, 2}), random_tensor(rng, {2, 3, 2, 2})});
}

TEST(GradCheck, AddSpatialBroadcast) {
  dc::Rng rng(18);
  Tensor w = random_tensor(rng, {2, 3, 2, 2});
  grad_check(
      [&](const std::vector<Var>& v) {
        return weighted_sum(nn::add_spatial_broadcast(v[0], v[1]), w);
      },
      {random_tensor(rng, {2, 3, 2, 2}), random_tensor(rng, {2, 3})});
}

TEST(GradCheck, UpsampleNearest) {
  dc::Rng rng(14);
  Tensor w = random_tensor(rng, {1, 2, 4, 4});
  grad_check(
      [&](const std::vector<Var>& v) {
        return weighted_sum(nn::upsample_nearest2(v[0]), w);
      },
      {random_tensor(rng, {1, 2, 2, 2})});
}

TEST(GradCheck, EmbeddingLookup) {
  dc::Rng rng(15);
  Tensor w = random_tensor(rng, {4, 3});
  const std::vector<std::int64_t> ids = {0, 2, 2, 1};
  grad_check(
      [&](const std::vector<Var>& v) {
        return weighted_sum(nn::embedding_lookup(v[0], ids), w);
      },
      {random_tensor(rng, {3, 3})});
}

TEST(GradCheck, CompositeAttentionBlock) {
  // Gradients flow through a full scaled-dot-product attention assembled
  // from primitives (the same composition the U-Net and transformer use).
  dc::Rng rng(16);
  const std::int64_t b = 1, t = 4, d = 3;
  Tensor w = random_tensor(rng, {b, t, d});
  grad_check(
      [&](const std::vector<Var>& v) {
        Var q = v[0];
        Var k = v[1];
        Var val = v[2];
        Var scores =
            nn::scale(nn::bmm(q, nn::permute(k, {0, 2, 1})),
                      1.0F / std::sqrt(static_cast<float>(d)));
        Var attn = nn::softmax_last(scores);
        Var out = nn::bmm(attn, val);
        return weighted_sum(out, w);
      },
      {random_tensor(rng, {b, t, d}), random_tensor(rng, {b, t, d}),
       random_tensor(rng, {b, t, d})});
}

TEST(GradCheck, DiamondGraphAccumulatesBothPaths) {
  // y = x*x + x used twice: checks gradient accumulation on shared nodes.
  dc::Rng rng(17);
  Tensor w = random_tensor(rng, {3});
  grad_check(
      [&](const std::vector<Var>& v) {
        Var sq = nn::mul(v[0], v[0]);
        Var y = nn::add(sq, v[0]);
        return weighted_sum(y, w);
      },
      {random_tensor(rng, {3})});
}
