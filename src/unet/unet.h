// Residual U-Net backbone for the discrete diffusion model.
//
// Faithful to the paper's configuration (Sec. IV-A): per-resolution channel
// multipliers, two convolutional residual blocks per level, self-attention
// blocks at chosen resolution levels, and the diffusion time step injected
// into every residual block through a sinusoidal position embedding followed
// by a two-layer MLP. The paper's full config is
//   UNetConfig{.in_channels = 16, .model_channels = 128,
//              .channel_mult = {1, 2, 2, 2}, .num_res_blocks = 2,
//              .attention_levels = {1}}
// (resolutions 32/16/8/4 with attention at 16x16); the CPU experiments in
// bench/ use smaller instantiations of the same code.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "nn/modules.h"
#include "tensor/arena.h"

namespace diffpattern::unet {

struct UNetConfig {
  std::int64_t in_channels = 4;
  /// Output channels; 2 * in_channels for binary-state logits: channels
  /// [0, C) hold state-0 logits and [C, 2C) state-1 logits (see
  /// logits_to_prob1 / logit_difference).
  std::int64_t out_channels = 8;
  std::int64_t model_channels = 32;
  std::vector<std::int64_t> channel_mult = {1, 2};
  std::int64_t num_res_blocks = 2;
  /// Levels (0 = full resolution) that get a self-attention block.
  std::set<std::int64_t> attention_levels = {1};
  float dropout = 0.1F;

  std::int64_t time_embed_dim() const { return model_channels * 4; }
  std::int64_t levels() const {
    return static_cast<std::int64_t>(channel_mult.size());
  }
};

/// Sinusoidal position embedding of diffusion steps: [N, dim] constant.
tensor::Tensor sinusoidal_time_embedding(const std::vector<std::int64_t>& k,
                                         std::int64_t dim);

class UNet {
 public:
  UNet(UNetConfig config, std::uint64_t seed);
  ~UNet();  // Out of line: members use types private to the .cpp.
  UNet(UNet&&) noexcept;
  UNet& operator=(UNet&&) noexcept;

  /// x: [N, in_channels, H, W] with H and W each a positive multiple of
  /// 2^(levels-1) (invalid_argument otherwise).
  /// k: per-sample diffusion step (size N). Returns [N, out_channels, H, W].
  nn::Var forward(const tensor::Tensor& x, const std::vector<std::int64_t>& k,
                  bool training, common::Rng& rng);

  nn::ParamRegistry& registry() { return registry_; }
  const nn::ParamRegistry& registry() const { return registry_; }
  const UNetConfig& config() const { return config_; }

  /// Per-model activation-plan cache, leased by the diffusion round loops
  /// (one plan per batch shape; see tensor/arena.h).
  tensor::InferencePlanCache& plan_cache() { return *plan_cache_; }

 private:
  struct ResBlock;
  struct AttentionBlock;
  struct LevelBlocks;

  nn::Var apply_res_block(const ResBlock& block, nn::Var h,
                          const nn::Var& time_emb, bool training,
                          common::Rng& rng) const;
  nn::Var apply_attention(const AttentionBlock& block, nn::Var h) const;

  UNetConfig config_;
  nn::ParamRegistry registry_;

  // Time-embedding MLP.
  std::unique_ptr<nn::Linear> time_fc1_;
  std::unique_ptr<nn::Linear> time_fc2_;
  // Stem.
  std::unique_ptr<nn::Conv2d> stem_;
  // Encoder / middle / decoder.
  std::vector<LevelBlocks> down_;
  std::unique_ptr<ResBlock> mid_block1_;
  std::unique_ptr<AttentionBlock> mid_attn_;
  std::unique_ptr<ResBlock> mid_block2_;
  std::vector<LevelBlocks> up_;
  // Head.
  std::unique_ptr<nn::GroupNorm> head_norm_;
  std::unique_ptr<nn::Conv2d> head_conv_;
  // Inference activation plans, one per batch shape.
  std::unique_ptr<tensor::InferencePlanCache> plan_cache_;
};

/// Converts the 2-logit-per-channel output into per-entry probabilities of
/// state 1: p1[n,c,h,w] = sigmoid(logit1 - logit0).
nn::Var logits_to_prob1(const nn::Var& logits, std::int64_t in_channels);

/// The logit difference d = logit1 - logit0 (used by the loss; p1 =
/// sigmoid(d)).
nn::Var logit_difference(const nn::Var& logits, std::int64_t in_channels);

}  // namespace diffpattern::unet
