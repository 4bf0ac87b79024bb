// Discrete diffusion over binary topology tensors (paper Sec. III-C).
//
// Pipeline:
//   * q_sample draws x_k ~ q(x_k | x_0) in one shot via the cumulative flip
//     probability (Eq. 10) — no need to apply k transitions.
//   * The U-Net predicts per-entry logits of p_theta(x0_tilde | x_k); the
//     reverse kernel p_theta(x_{k-1} | x_k) marginalizes the closed-form
//     posterior over both x0_tilde states (Eq. 11).
//   * The training loss is L = KL(q(x_{k-1}|x_k,x_0) || p_theta(x_{k-1}|x_k))
//     + lambda * CE(x_0, p_theta(x0_tilde|x_k)) for k >= 2, and plain CE at
//     k = 1 (Eq. 9 with the D3PM k=1 convention).
//   * Sampling draws x_{K_eps} from the uniform stationary distribution
//     (K_eps = BinarySchedule::chain_start(), where the signal ends) and
//     walks the reverse chain (Eq. 13) along each slot's step_plan. One
//     sampler, sample_streams_strided, does it: stride 1 is the full chain,
//     larger strides take DDIM-style jumps, and one fused batch may mix
//     strides and per-slot RNG streams.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "diffusion/schedule.h"
#include "nn/autograd.h"
#include "nn/optim.h"
#include "unet/unet.h"

namespace diffpattern::diffusion {

struct LossConfig {
  /// Weight of the auxiliary cross-entropy term (paper: 0.001).
  float lambda = 0.001F;
};

struct LossBreakdown {
  double total = 0.0;
  double kl = 0.0;             // Mean over k>=2 entries (0 if none).
  double cross_entropy = 0.0;  // Mean auxiliary CE over all entries.
};

/// Draws x_k ~ q(x_k | x_0) entrywise; x0 is a binary [N,C,H,W] tensor and
/// `k` holds one step per sample.
tensor::Tensor q_sample(const BinarySchedule& schedule,
                        const tensor::Tensor& x0,
                        const std::vector<std::int64_t>& k, common::Rng& rng);

/// Builds the differentiable training loss for one batch. Samples per-sample
/// steps k ~ U[1, K] and noise internally. Returns the loss Var (call
/// backward() on it) plus a numeric breakdown for logging.
struct LossResult {
  nn::Var loss;
  LossBreakdown breakdown;
};
LossResult diffusion_loss(unet::UNet& model, const BinarySchedule& schedule,
                          const tensor::Tensor& x0, const LossConfig& config,
                          common::Rng& rng);

/// One training step (loss + backward + Adam step). Returns the breakdown.
class DiffusionTrainer {
 public:
  DiffusionTrainer(unet::UNet& model, const BinarySchedule& schedule,
                   LossConfig loss_config, nn::AdamConfig adam_config);

  LossBreakdown step(const tensor::Tensor& x0_batch, common::Rng& rng);

  std::int64_t steps_taken() const { return optimizer_.steps_taken(); }

 private:
  unet::UNet& model_;
  const BinarySchedule& schedule_;
  LossConfig loss_config_;
  nn::Adam optimizer_;
};

struct SamplerConfig {
  /// Take the argmax of p_theta(x0|x1) at the final step instead of
  /// sampling (crisper topologies; both modes are exposed for the ablation).
  bool final_argmax = true;
};

/// Per-round observer for the reverse chain (used by the Fig. 6 bench):
/// called with (K_eps, prior) before the first round, then after every
/// round with (largest step any slot still has to run, current x). A
/// uniform stride s therefore sees its step_plan followed by 0.
using SampleObserver =
    std::function<void(std::int64_t k, const tensor::Tensor& x)>;

/// Per-round hook for the fused sampler, called after every executed round
/// with (k just finished, slots in the round). Unlike SampleObserver it
/// deliberately does NOT expose the intermediate tensor: it exists for
/// round-structured bookkeeping (the service's denoise-step counters and
/// progress accounting), so the sampler never has to copy state out of the
/// hot loop. Must not throw.
using RoundHook = std::function<void(std::int64_t k, std::int64_t batch)>;

/// The steps one slot's reverse chain visits, in descending order:
/// K_eps, K_eps - stride, K_eps - 2 * stride, ..., down to >= 1 (the final
/// jump from the last entry lands on 0). Its length is the number of U-Net
/// evaluations the slot costs: ceil(K_eps / stride). This is the only
/// place that decides the visit set; the sampler, the steps -> stride
/// resolution and the service's eval accounting all read it.
std::vector<std::int64_t> step_plan(const BinarySchedule& schedule,
                                    std::int64_t stride);

/// step_plan(schedule, stride).size(): U-Net evaluations per slot.
std::int64_t plan_length(const BinarySchedule& schedule, std::int64_t stride);

/// Fused reverse diffusion over streams.size() samples in ONE batch. Slot i
/// walks step_plan(schedule, strides[i]) and then 0 (DDIM-style jumps via
/// the generalized posterior
/// q(x_{k_prev} | x_k, x0_tilde); stride 1 is the full ancestral chain) and
/// draws its stochastic transitions exclusively from *streams[i] in a fixed
/// order. Each round runs ONE U-Net forward over exactly the slots whose
/// plan visits that step, so the batch narrows as coarse-stride
/// slots finish early. Every network op treats batch entries independently,
/// so slot i's bytes equal a solo run with the same (stream, stride) for any
/// batch composition, thread count, or kernel backend — this is what lets
/// the service fuse queued requests without breaking per-request
/// reproducibility. strides must pair 1:1 with streams, each in
/// [1, schedule.steps()]. Returns [streams.size(), C, height, width].
/// `round_hook` fires once per executed round with (k, active slots), which
/// the service's fill-ratio accounting consumes; `observer` sees the state
/// after the prior and after every round. Neither affects the samples.
tensor::Tensor sample_streams_strided(
    unet::UNet& model, const BinarySchedule& schedule, std::int64_t height,
    std::int64_t width, const SamplerConfig& config,
    const std::vector<common::Rng*>& streams,
    const std::vector<std::int64_t>& strides,
    const RoundHook& round_hook = nullptr,
    const SampleObserver& observer = nullptr);

}  // namespace diffpattern::diffusion
