// End-to-end training smoke tests: small networks trained with Adam must fit
// simple synthetic tasks. These validate that forward, backward, and the
// optimizer compose correctly (beyond per-op gradcheck).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "nn/modules.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace nn = diffpattern::nn;
namespace dc = diffpattern::common;
using diffpattern::tensor::Tensor;
using nn::Var;

TEST(Training, MlpFitsXor) {
  dc::Rng rng(123);
  nn::ParamRegistry reg;
  nn::Linear l1(reg, rng, "l1", 2, 16);
  nn::Linear l2(reg, rng, "l2", 16, 1);

  Tensor x = Tensor::from_data({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  Tensor t = Tensor::from_data({4, 1}, {0, 1, 1, 0});

  nn::AdamConfig cfg;
  cfg.learning_rate = 0.02F;
  cfg.grad_clip_norm = 0.0F;
  nn::Adam opt(reg.params(), cfg);

  double final_loss = 1e9;
  for (int it = 0; it < 600; ++it) {
    opt.zero_grad();
    Var h = nn::silu(l1(Var(x)));
    Var logits = l2(h);
    // BCE with logits: softplus(z) - t*z, averaged.
    Var bce = nn::sub(nn::softplus(logits), nn::mul_const(logits, t));
    Var loss = nn::mean_all(bce);
    loss.backward();
    opt.step();
    final_loss = loss.value()[0];
  }
  EXPECT_LT(final_loss, 0.1);
}

TEST(Training, ConvNetFitsBinaryImageLabels) {
  // Classify 6x6 binary images: label = 1 if left half is brighter.
  dc::Rng rng(7);
  nn::ParamRegistry reg;
  nn::Conv2d conv1(reg, rng, "c1", 1, 4, 3, 1, 1);
  nn::Conv2d conv2(reg, rng, "c2", 4, 4, 3, 2, 1);
  nn::Linear head(reg, rng, "head", 4 * 3 * 3, 1);

  const int n = 32;
  Tensor x({n, 1, 6, 6});
  Tensor t({n, 1});
  for (int i = 0; i < n; ++i) {
    const bool left = rng.bernoulli(0.5);
    t[i] = left ? 1.0F : 0.0F;
    for (int r = 0; r < 6; ++r) {
      for (int c = 0; c < 6; ++c) {
        const bool bright = left ? (c < 3) : (c >= 3);
        x.at({i, 0, r, c}) =
            bright ? static_cast<float>(rng.uniform(0.6, 1.0))
                   : static_cast<float>(rng.uniform(0.0, 0.4));
      }
    }
  }

  nn::AdamConfig cfg;
  cfg.learning_rate = 0.01F;
  nn::Adam opt(reg.params(), cfg);
  double final_loss = 1e9;
  for (int it = 0; it < 120; ++it) {
    opt.zero_grad();
    Var h = nn::relu(conv1(Var(x)));
    h = nn::relu(conv2(h));
    h = nn::reshape(h, {n, 4 * 3 * 3});
    Var logits = head(h);
    Var bce = nn::sub(nn::softplus(logits), nn::mul_const(logits, t));
    Var loss = nn::mean_all(bce);
    loss.backward();
    opt.step();
    final_loss = loss.value()[0];
  }
  EXPECT_LT(final_loss, 0.12);
}

TEST(Training, TinyAttentionFitsCopyTask) {
  // One-layer attention over 4 tokens must learn to route information:
  // output position 0 should predict the embedding at the position indexed
  // by the first token (a soft pointer task, trivially learnable).
  dc::Rng rng(21);
  nn::ParamRegistry reg;
  const std::int64_t d = 8, t = 4;
  nn::Linear wq(reg, rng, "wq", d, d);
  nn::Linear wk(reg, rng, "wk", d, d);
  nn::Linear wv(reg, rng, "wv", d, d);
  nn::Linear out(reg, rng, "out", d, 2);

  const int n = 16;
  Tensor x({n, t, d});
  Tensor target({n, 2});
  for (int i = 0; i < n; ++i) {
    const bool cls = rng.bernoulli(0.5);
    target.at({i, 0}) = cls ? 1.0F : 0.0F;
    target.at({i, 1}) = cls ? 0.0F : 1.0F;
    for (int tt = 0; tt < t; ++tt) {
      for (int dd = 0; dd < d; ++dd) {
        x.at({i, tt, dd}) = static_cast<float>(rng.normal(0.0, 0.3));
      }
    }
    // Plant the class signal at token 2.
    x.at({i, 2, 0}) = cls ? 2.0F : -2.0F;
  }

  nn::AdamConfig cfg;
  cfg.learning_rate = 0.01F;
  nn::Adam opt(reg.params(), cfg);
  double final_loss = 1e9;
  for (int it = 0; it < 200; ++it) {
    opt.zero_grad();
    Var xv(x);
    Var flat = nn::reshape(xv, {n * t, d});
    Var q = nn::reshape(wq(flat), {n, t, d});
    Var k = nn::reshape(wk(flat), {n, t, d});
    Var v = nn::reshape(wv(flat), {n, t, d});
    Var scores = nn::scale(nn::bmm(q, nn::permute(k, {0, 2, 1})),
                           1.0F / std::sqrt(static_cast<float>(d)));
    Var attn = nn::softmax_last(scores);
    Var mixed = nn::bmm(attn, v);  // [n, t, d]
    // Pool over tokens (mean) then classify.
    Var pooled = nn::scale(
        nn::reshape(
            nn::bmm(Var(Tensor({n, 1, t}, 1.0F / t)), mixed),
            {n, d}),
        1.0F);
    Var logits = out(pooled);
    Var logp = nn::log_clamped(nn::softmax_last(logits), 1e-9F);
    Var loss = nn::scale(nn::mean_all(nn::mul_const(logp, target)),
                         -static_cast<float>(2));
    loss.backward();
    opt.step();
    final_loss = loss.value()[0];
  }
  EXPECT_LT(final_loss, 0.2);
}
