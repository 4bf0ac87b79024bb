#include "diffusion/diffusion.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"
#include "nn/ops.h"
#include "tensor/arena.h"
#include "tensor/parallel.h"
#include "tensor/tensor_ops.h"

namespace diffpattern::diffusion {

using nn::Var;
using tensor::Tensor;

namespace {

void require_binary(const Tensor& t, const char* what) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    DP_REQUIRE(t[i] == 0.0F || t[i] == 1.0F,
               std::string(what) + ": entries must be binary");
  }
}

/// Per-step posterior coefficients: prob(x_{k-1} = 1 | x_k, x0_tilde) for
/// the four (x_k, x0_tilde) combinations.
struct PosteriorCoeffs {
  double a0;  // x0_tilde = 1, x_k = 0
  double a1;  // x0_tilde = 1, x_k = 1
  double b0;  // x0_tilde = 0, x_k = 0
  double b1;  // x0_tilde = 0, x_k = 1
};

PosteriorCoeffs posterior_coeffs(const BinarySchedule& schedule,
                                 std::int64_t k) {
  return PosteriorCoeffs{
      schedule.posterior_prob1(k, /*x_k=*/0, /*x_0=*/1),
      schedule.posterior_prob1(k, /*x_k=*/1, /*x_0=*/1),
      schedule.posterior_prob1(k, /*x_k=*/0, /*x_0=*/0),
      schedule.posterior_prob1(k, /*x_k=*/1, /*x_0=*/0),
  };
}

}  // namespace

Tensor q_sample(const BinarySchedule& schedule, const Tensor& x0,
                const std::vector<std::int64_t>& k, common::Rng& rng) {
  DP_REQUIRE(x0.rank() == 4, "q_sample: x0 must be [N,C,H,W]");
  DP_REQUIRE(static_cast<std::int64_t>(k.size()) == x0.dim(0),
             "q_sample: one step per sample required");
  Tensor xk = x0;
  const auto per_sample = x0.numel() / x0.dim(0);
  for (std::int64_t n = 0; n < x0.dim(0); ++n) {
    const double flip =
        schedule.cumulative_flip(k[static_cast<std::size_t>(n)]);
    float* data = xk.data() + n * per_sample;
    for (std::int64_t i = 0; i < per_sample; ++i) {
      DP_REQUIRE(data[i] == 0.0F || data[i] == 1.0F,
                 "q_sample: x0 entries must be binary");
      if (rng.bernoulli(flip)) {
        data[i] = 1.0F - data[i];
      }
    }
  }
  return xk;
}

LossResult diffusion_loss(unet::UNet& model, const BinarySchedule& schedule,
                          const Tensor& x0, const LossConfig& config,
                          common::Rng& rng) {
  DP_REQUIRE(x0.rank() == 4, "diffusion_loss: x0 must be [N,C,H,W]");
  const auto n = x0.dim(0);
  const auto c = x0.dim(1);
  const auto per_sample = x0.numel() / n;

  // Per-sample diffusion step k ~ U[1, K].
  std::vector<std::int64_t> k(static_cast<std::size_t>(n));
  for (auto& ki : k) {
    ki = rng.uniform_int(1, schedule.steps());
  }
  const Tensor xk = q_sample(schedule, x0, k, rng);

  // Constant coefficient tensors (no gradient flows into them).
  Tensor coeff_a(x0.shape());   // prob1 coefficient for x0_tilde = 1
  Tensor coeff_b(x0.shape());   // prob1 coefficient for x0_tilde = 0
  Tensor q1(x0.shape());        // true posterior prob(x_{k-1} = 1)
  Tensor entropy_q(x0.shape()); // -H(q), the constant completing the KL
  Tensor kl_mask(x0.shape());   // 1 for entries whose sample has k >= 2
  for (std::int64_t s = 0; s < n; ++s) {
    const auto ks = k[static_cast<std::size_t>(s)];
    const auto coeffs = posterior_coeffs(schedule, ks);
    const float mask = ks >= 2 ? 1.0F : 0.0F;
    for (std::int64_t i = 0; i < per_sample; ++i) {
      const auto idx = s * per_sample + i;
      const int xkv = xk[idx] != 0.0F ? 1 : 0;
      const int x0v = x0[idx] != 0.0F ? 1 : 0;
      const double a = xkv == 1 ? coeffs.a1 : coeffs.a0;
      const double b = xkv == 1 ? coeffs.b1 : coeffs.b0;
      coeff_a[idx] = static_cast<float>(a);
      coeff_b[idx] = static_cast<float>(b);
      const double q = x0v == 1 ? a : b;
      q1[idx] = static_cast<float>(q);
      const double h = (q > 0.0 ? q * std::log(q) : 0.0) +
                       (q < 1.0 ? (1.0 - q) * std::log(1.0 - q) : 0.0);
      entropy_q[idx] = static_cast<float>(h);  // = -H(q)
      kl_mask[idx] = mask;
    }
  }

  // Network forward: logits of p_theta(x0_tilde | x_k).
  Var logits = model.forward(xk, k, /*training=*/true, rng);
  Var d = unet::logit_difference(logits, c);
  Var p0 = nn::sigmoid(d);  // prob(x0_tilde = 1 | x_k)

  // p_theta(x_{k-1} = 1 | x_k) = A * p0 + B * (1 - p0)  (Eq. 11).
  Tensor a_minus_b(x0.shape());
  for (std::int64_t i = 0; i < x0.numel(); ++i) {
    a_minus_b[i] = coeff_a[i] - coeff_b[i];
  }
  Var p1 = nn::add_const(nn::mul_const(p0, a_minus_b), coeff_b);

  // KL(q || p) per entry: -q1*log(p1) - (1-q1)*log(1-p1) - H(q).
  Tensor one_minus_q1(x0.shape());
  for (std::int64_t i = 0; i < x0.numel(); ++i) {
    one_minus_q1[i] = 1.0F - q1[i];
  }
  Var log_p1 = nn::log_clamped(p1);
  Var log_1mp1 = nn::log_clamped(nn::add_scalar(nn::neg(p1), 1.0F));
  Var ce_q_p = nn::neg(nn::add(nn::mul_const(log_p1, q1),
                               nn::mul_const(log_1mp1, one_minus_q1)));
  Var kl = nn::add_const(ce_q_p, entropy_q);  // entropy_q = -H(q)

  // Auxiliary CE on x0: softplus(d) - x0 * d  (== -log p_theta(x0 | x_k)).
  Var ce = nn::sub(nn::softplus(d), nn::mul_const(d, x0));

  // Entry weights: k == 1 -> plain CE; k >= 2 -> KL + lambda * CE (Eq. 9).
  Tensor ce_weight(x0.shape());
  for (std::int64_t i = 0; i < x0.numel(); ++i) {
    ce_weight[i] = kl_mask[i] == 1.0F ? config.lambda : 1.0F;
  }
  Var combined =
      nn::add(nn::mul_const(kl, kl_mask), nn::mul_const(ce, ce_weight));
  Var loss = nn::mean_all(combined);

  LossBreakdown breakdown;
  breakdown.total = loss.value()[0];
  const auto kl_entries = tensor::sum(kl_mask);
  breakdown.kl =
      kl_entries > 0.0
          ? tensor::sum(tensor::mul(kl.value(), kl_mask)) / kl_entries
          : 0.0;
  breakdown.cross_entropy =
      tensor::sum(ce.value()) / static_cast<double>(x0.numel());
  return LossResult{loss, breakdown};
}

DiffusionTrainer::DiffusionTrainer(unet::UNet& model,
                                   const BinarySchedule& schedule,
                                   LossConfig loss_config,
                                   nn::AdamConfig adam_config)
    : model_(model),
      schedule_(schedule),
      loss_config_(loss_config),
      optimizer_(model.registry().params(), adam_config) {}

LossBreakdown DiffusionTrainer::step(const Tensor& x0_batch,
                                     common::Rng& rng) {
  optimizer_.zero_grad();
  LossResult result = diffusion_loss(model_, schedule_, x0_batch,
                                     loss_config_, rng);
  result.loss.backward();
  optimizer_.step();
  return result.breakdown;
}

std::vector<std::int64_t> step_plan(const BinarySchedule& schedule,
                                    std::int64_t stride) {
  DP_REQUIRE(stride >= 1, "step_plan: stride must be >= 1");
  std::vector<std::int64_t> plan;
  for (std::int64_t k = schedule.chain_start(); k >= 1; k -= stride) {
    plan.push_back(k);
  }
  return plan;
}

std::int64_t plan_length(const BinarySchedule& schedule, std::int64_t stride) {
  return static_cast<std::int64_t>(step_plan(schedule, stride).size());
}

tensor::Tensor sample_streams_strided(
    unet::UNet& model, const BinarySchedule& schedule, std::int64_t height,
    std::int64_t width, const SamplerConfig& config,
    const std::vector<common::Rng*>& streams,
    const std::vector<std::int64_t>& strides, const RoundHook& round_hook,
    const SampleObserver& observer) {
  const auto batch = static_cast<std::int64_t>(streams.size());
  DP_REQUIRE(batch >= 1 && height >= 1 && width >= 1,
             "sample_streams_strided: bad output shape");
  DP_REQUIRE(strides.size() == streams.size(),
             "sample_streams_strided: one stride per stream required");
  for (const auto* s : streams) {
    DP_REQUIRE(s != nullptr, "sample_streams_strided: null stream");
  }
  for (const auto stride : strides) {
    DP_REQUIRE(stride >= 1 && stride <= schedule.steps(),
               "sample_streams_strided: stride outside [1, K]");
  }
  nn::NoGradGuard no_grad;
  const auto c = model.config().in_channels;
  Tensor x({batch, c, height, width});
  const auto per_sample = x.numel() / batch;
  // Uniform stationary prior at the plan start. Slot n consumes only
  // streams[n] and tasks own whole slots, so the per-stream draw order (and
  // therefore the bytes) is fixed for any thread count.
  tensor::parallel_for(0, batch, [&](std::int64_t n0, std::int64_t n1) {
    for (std::int64_t n = n0; n < n1; ++n) {
      float* slot = x.data() + n * per_sample;
      for (std::int64_t i = 0; i < per_sample; ++i) {
        slot[i] = streams[static_cast<std::size_t>(n)]->bernoulli(0.5) ? 1.0F
                                                                       : 0.0F;
      }
    }
  });

  // Slot n visits its step plan and then 0 (finished); next[n] indexes
  // the step it runs next.
  std::vector<std::vector<std::int64_t>> plans;
  for (const auto stride : strides) {
    plans.push_back(step_plan(schedule, stride));
    plans.back().push_back(0);
  }
  std::vector<std::size_t> next(static_cast<std::size_t>(batch), 0);
  const auto next_k = [&](std::int64_t n) {
    const auto i = static_cast<std::size_t>(n);
    return plans[i][next[i]];
  };
  const auto pending = [&] {
    std::int64_t k = 0;
    for (std::int64_t n = 0; n < batch; ++n) {
      k = std::max(k, next_k(n));
    }
    return k;
  };
  if (observer) {
    observer(pending(), x);
  }

  std::vector<std::int64_t> active;
  active.reserve(static_cast<std::size_t>(batch));
  common::Rng forward_rng(0);  // Inference forward draws no randomness.
  while (true) {
    const std::int64_t k = pending();
    if (k < 1) {
      break;
    }
    active.clear();
    for (std::int64_t n = 0; n < batch; ++n) {
      if (next_k(n) == k) {
        active.push_back(n);
      }
    }
    const auto m = static_cast<std::int64_t>(active.size());

    // One fused forward over exactly the active slots. Every network op
    // treats batch entries independently, so gathering a sub-batch leaves
    // each slot's logits bit-identical to any other batch composition —
    // this is the narrowing that converts skipped steps into throughput.
    // The plan lease is keyed by the NARROWED shape, so each sub-batch
    // width the strides produce gets its own recycled plan.
    tensor::ArenaScope arena_scope(model.plan_cache(),
                                   tensor::Shape{m, c, height, width});
    Tensor p0_active;
    if (m == batch) {
      const std::vector<std::int64_t> ks(static_cast<std::size_t>(batch), k);
      Var logits = model.forward(x, ks, /*training=*/false, forward_rng);
      p0_active = unet::logits_to_prob1(logits, c).value();
    } else {
      Tensor xa({m, c, height, width});
      for (std::int64_t j = 0; j < m; ++j) {
        const float* src =
            x.data() + active[static_cast<std::size_t>(j)] * per_sample;
        std::copy(src, src + per_sample, xa.data() + j * per_sample);
      }
      const std::vector<std::int64_t> ks(static_cast<std::size_t>(m), k);
      Var logits = model.forward(xa, ks, /*training=*/false, forward_rng);
      p0_active = unet::logits_to_prob1(logits, c).value();
    }

    // Per-slot jump transitions, parallel across ACTIVE slots only; each
    // task owns whole slots so stream draw order stays fixed.
    tensor::parallel_for(0, m, [&](std::int64_t j0, std::int64_t j1) {
      for (std::int64_t j = j0; j < j1; ++j) {
        const auto n = active[static_cast<std::size_t>(j)];
        ++next[static_cast<std::size_t>(n)];
        const std::int64_t k_prev = next_k(n);
        common::Rng& rng = *streams[static_cast<std::size_t>(n)];
        float* slot = x.data() + n * per_sample;
        const float* p0_slot = p0_active.data() + j * per_sample;
        if (k_prev == 0) {
          for (std::int64_t i = 0; i < per_sample; ++i) {
            const double p = p0_slot[i];
            const bool one =
                config.final_argmax ? p >= 0.5 : rng.bernoulli(p);
            slot[i] = one ? 1.0F : 0.0F;
          }
        } else {
          // Jump posterior coefficients for this slot's (k_prev, k). At
          // stride 1 these are exactly the ancestral posterior_prob1(k, ...)
          // (it delegates to posterior_prob1_between(k-1, k, ...)), so a
          // stride-1 walk is the paper's full reverse chain (Eq. 13).
          const double a0 = schedule.posterior_prob1_between(k_prev, k, 0, 1);
          const double a1 = schedule.posterior_prob1_between(k_prev, k, 1, 1);
          const double b0 = schedule.posterior_prob1_between(k_prev, k, 0, 0);
          const double b1 = schedule.posterior_prob1_between(k_prev, k, 1, 0);
          for (std::int64_t i = 0; i < per_sample; ++i) {
            const int xkv = slot[i] != 0.0F ? 1 : 0;
            const double a = xkv == 1 ? a1 : a0;
            const double b = xkv == 1 ? b1 : b0;
            const double p1 = a * p0_slot[i] + b * (1.0 - p0_slot[i]);
            slot[i] = rng.bernoulli(p1) ? 1.0F : 0.0F;
          }
        }
      }
    });
    if (round_hook) {
      round_hook(k, m);
    }
    if (observer) {
      observer(pending(), x);
    }
  }
  require_binary(x, "sample_streams_strided output");
  return x;
}

}  // namespace diffpattern::diffusion
