#include "unet/unet.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "common/contracts.h"

namespace diffpattern::unet {

using nn::Var;
using tensor::Tensor;

tensor::Tensor sinusoidal_time_embedding(const std::vector<std::int64_t>& k,
                                         std::int64_t dim) {
  DP_REQUIRE(dim >= 2 && dim % 2 == 0,
             "sinusoidal_time_embedding: dim must be even and >= 2");
  const auto n = static_cast<std::int64_t>(k.size());
  const auto half = dim / 2;
  // Frequency table hoisted out of the row loop: exp/log run once per j
  // instead of once per (i, j). The expression is evaluated identically to
  // the former inline form, so the bytes are unchanged.
  std::vector<double> freqs(static_cast<std::size_t>(half));
  for (std::int64_t j = 0; j < half; ++j) {
    freqs[static_cast<std::size_t>(j)] =
        std::exp(-std::log(10000.0) * static_cast<double>(j) /
                 static_cast<double>(std::max<std::int64_t>(half - 1, 1)));
  }
  Tensor out({n, dim});
  for (std::int64_t i = 0; i < n; ++i) {
    const auto step = static_cast<double>(k[static_cast<std::size_t>(i)]);
    for (std::int64_t j = 0; j < half; ++j) {
      const double freq = freqs[static_cast<std::size_t>(j)];
      out.at({i, j}) = static_cast<float>(std::sin(step * freq));
      out.at({i, half + j}) = static_cast<float>(std::cos(step * freq));
    }
  }
  return out;
}

struct UNet::ResBlock {
  ResBlock(nn::ParamRegistry& reg, common::Rng& rng, const std::string& name,
           std::int64_t in_ch, std::int64_t out_ch, std::int64_t time_dim)
      : in_channels(in_ch),
        out_channels(out_ch),
        norm1(reg, name + ".norm1", in_ch, nn::pick_group_count(in_ch)),
        conv1(reg, rng, name + ".conv1", in_ch, out_ch, 3, 1, 1),
        time_proj(reg, rng, name + ".time_proj", time_dim, out_ch),
        norm2(reg, name + ".norm2", out_ch, nn::pick_group_count(out_ch)),
        conv2(reg, rng, name + ".conv2", out_ch, out_ch, 3, 1, 1) {
    if (in_ch != out_ch) {
      skip.emplace(reg, rng, name + ".skip", in_ch, out_ch, 1, 1, 0);
    }
  }

  std::int64_t in_channels;
  std::int64_t out_channels;
  nn::GroupNorm norm1;
  nn::Conv2d conv1;
  nn::Linear time_proj;
  nn::GroupNorm norm2;
  nn::Conv2d conv2;
  std::optional<nn::Conv2d> skip;
};

struct UNet::AttentionBlock {
  AttentionBlock(nn::ParamRegistry& reg, common::Rng& rng,
                 const std::string& name, std::int64_t ch)
      : channels(ch),
        norm(reg, name + ".norm", ch, nn::pick_group_count(ch)),
        qkv(reg, rng, name + ".qkv", ch, 3 * ch, 1, 1, 0),
        proj(reg, rng, name + ".proj", ch, ch, 1, 1, 0) {}

  std::int64_t channels;
  nn::GroupNorm norm;
  nn::Conv2d qkv;
  nn::Conv2d proj;
};

struct UNet::LevelBlocks {
  std::vector<ResBlock> res;
  std::vector<std::optional<AttentionBlock>> attn;  // Parallel to `res`.
  std::optional<nn::Conv2d> resample;  // Downsample (stride 2) or post-up conv.
};

UNet::UNet(UNetConfig config, std::uint64_t seed) : config_(std::move(config)) {
  DP_REQUIRE(config_.in_channels >= 1, "UNet: in_channels must be >= 1");
  DP_REQUIRE(!config_.channel_mult.empty(), "UNet: channel_mult empty");
  DP_REQUIRE(config_.num_res_blocks >= 1, "UNet: need at least one res block");
  common::Rng rng(seed);
  const auto time_dim = config_.time_embed_dim();
  const auto mc = config_.model_channels;

  time_fc1_ = std::make_unique<nn::Linear>(registry_, rng, "time.fc1", mc,
                                           time_dim);
  time_fc2_ = std::make_unique<nn::Linear>(registry_, rng, "time.fc2",
                                           time_dim, time_dim);
  stem_ = std::make_unique<nn::Conv2d>(registry_, rng, "stem",
                                       config_.in_channels, mc, 3, 1, 1);

  // Encoder: mirror the forward pass channel bookkeeping.
  std::vector<std::int64_t> skip_channels = {mc};
  std::int64_t ch = mc;
  for (std::int64_t level = 0; level < config_.levels(); ++level) {
    LevelBlocks blocks;
    const auto out_ch =
        mc * config_.channel_mult[static_cast<std::size_t>(level)];
    const bool want_attn = config_.attention_levels.count(level) > 0;
    for (std::int64_t i = 0; i < config_.num_res_blocks; ++i) {
      const std::string name =
          "down." + std::to_string(level) + ".res" + std::to_string(i);
      blocks.res.emplace_back(registry_, rng, name, ch, out_ch, time_dim);
      if (want_attn) {
        blocks.attn.emplace_back(std::in_place, registry_, rng,
                                 name + ".attn", out_ch);
      } else {
        blocks.attn.emplace_back(std::nullopt);
      }
      ch = out_ch;
      skip_channels.push_back(ch);
    }
    if (level + 1 < config_.levels()) {
      blocks.resample.emplace(registry_, rng,
                              "down." + std::to_string(level) + ".downsample",
                              ch, ch, 3, 2, 1);
      skip_channels.push_back(ch);
    }
    down_.push_back(std::move(blocks));
  }

  mid_block1_ = std::make_unique<ResBlock>(registry_, rng, "mid.res1", ch, ch,
                                           time_dim);
  mid_attn_ = std::make_unique<AttentionBlock>(registry_, rng, "mid.attn", ch);
  mid_block2_ = std::make_unique<ResBlock>(registry_, rng, "mid.res2", ch, ch,
                                           time_dim);

  // Decoder.
  for (std::int64_t level = config_.levels() - 1; level >= 0; --level) {
    LevelBlocks blocks;
    const auto out_ch =
        mc * config_.channel_mult[static_cast<std::size_t>(level)];
    const bool want_attn = config_.attention_levels.count(level) > 0;
    for (std::int64_t i = 0; i <= config_.num_res_blocks; ++i) {
      DP_CHECK(!skip_channels.empty(), "UNet: skip stack underflow");
      const auto skip_ch = skip_channels.back();
      skip_channels.pop_back();
      const std::string name =
          "up." + std::to_string(level) + ".res" + std::to_string(i);
      blocks.res.emplace_back(registry_, rng, name, ch + skip_ch, out_ch,
                              time_dim);
      if (want_attn) {
        blocks.attn.emplace_back(std::in_place, registry_, rng,
                                 name + ".attn", out_ch);
      } else {
        blocks.attn.emplace_back(std::nullopt);
      }
      ch = out_ch;
    }
    if (level > 0) {
      blocks.resample.emplace(registry_, rng,
                              "up." + std::to_string(level) + ".upsample", ch,
                              ch, 3, 1, 1);
    }
    up_.push_back(std::move(blocks));
  }
  DP_CHECK(skip_channels.empty(), "UNet: unconsumed skip connections");

  head_norm_ = std::make_unique<nn::GroupNorm>(registry_, "head.norm", ch,
                                               nn::pick_group_count(ch));
  head_conv_ = std::make_unique<nn::Conv2d>(registry_, rng, "head.conv", ch,
                                            config_.out_channels, 3, 1, 1);

  // Constructed eagerly (not lazily on first forward) so concurrent
  // inference threads never race on member initialization.
  plan_cache_ = std::make_unique<tensor::InferencePlanCache>();
}

UNet::~UNet() = default;
UNet::UNet(UNet&&) noexcept = default;
UNet& UNet::operator=(UNet&&) noexcept = default;

Var UNet::apply_res_block(const ResBlock& block, Var h, const Var& time_emb,
                          bool training, common::Rng& rng) const {
  // Inject the time embedding as a per-channel bias, added by conv1 after
  // its own bias; conv2 adds the residual the same way.
  Var t = block.time_proj(nn::silu(time_emb));  // [N, out_ch]
  const Var residual = block.skip.has_value() ? (*block.skip)(h) : h;
  h = block.conv1(block.norm1.silu_into(h, block.conv1), {.channel_add = &t});
  // Dropout draws one mask entry per element of the plain layout, so a
  // training forward keeps it.
  const nn::ConvInput in =
      training ? nn::ConvInput(nn::dropout(nn::silu(block.norm2(h)),
                                           config_.dropout, training, rng))
               : block.norm2.silu_into(h, block.conv2);
  return block.conv2(in, {.residual = &residual});
}

Var UNet::apply_attention(const AttentionBlock& block, Var h) const {
  const auto n = h.dim(0);
  const auto c = block.channels;
  const auto height = h.dim(2);
  const auto width = h.dim(3);
  const auto tokens = height * width;
  Var normed = block.norm(h);
  Var qkv = block.qkv(normed);  // [N, 3C, H, W]
  Var q = nn::reshape(nn::slice_channels(qkv, 0, c), {n, c, tokens});
  Var k = nn::reshape(nn::slice_channels(qkv, c, c), {n, c, tokens});
  Var v = nn::reshape(nn::slice_channels(qkv, 2 * c, c), {n, c, tokens});
  // scores[b, i, j] = <q[:, i], k[:, j]> / sqrt(C)
  Var scores = nn::scale(nn::bmm(nn::permute(q, {0, 2, 1}), k),
                         1.0F / std::sqrt(static_cast<float>(c)));
  Var attn = nn::softmax_last(scores);  // [N, T, T], rows sum to 1.
  // out[:, i] = sum_j attn[i, j] * v[:, j]  ->  [N, C, T]
  Var mixed = nn::bmm(v, nn::permute(attn, {0, 2, 1}));
  return block.proj(nn::reshape(mixed, {n, c, height, width}),
                    {.residual = &h});
}

Var UNet::forward(const Tensor& x, const std::vector<std::int64_t>& k,
                  bool training, common::Rng& rng) {
  DP_REQUIRE(x.rank() == 4, "UNet::forward: x must be [N,C,H,W]");
  DP_REQUIRE(x.dim(1) == config_.in_channels,
             "UNet::forward: channel count mismatch");
  DP_REQUIRE(static_cast<std::int64_t>(k.size()) == x.dim(0),
             "UNet::forward: need one diffusion step per sample");
  const auto unit = std::int64_t{1} << (config_.levels() - 1);
  DP_REQUIRE(x.dim(2) >= unit && x.dim(2) % unit == 0,
             "UNet::forward: height " + std::to_string(x.dim(2)) +
                 " is not a positive multiple of 2^(levels-1) = " +
                 std::to_string(unit));
  DP_REQUIRE(x.dim(3) >= unit && x.dim(3) % unit == 0,
             "UNet::forward: width " + std::to_string(x.dim(3)) +
                 " is not a positive multiple of 2^(levels-1) = " +
                 std::to_string(unit));

  Var time_emb(sinusoidal_time_embedding(k, config_.model_channels));
  time_emb = (*time_fc2_)(nn::silu((*time_fc1_)(time_emb)));

  Var h = (*stem_)(Var(x));
  std::vector<Var> skips = {h};
  for (std::size_t level = 0; level < down_.size(); ++level) {
    const auto& blocks = down_[level];
    for (std::size_t i = 0; i < blocks.res.size(); ++i) {
      h = apply_res_block(blocks.res[i], h, time_emb, training, rng);
      if (blocks.attn[i].has_value()) {
        h = apply_attention(*blocks.attn[i], h);
      }
      skips.push_back(h);
    }
    if (blocks.resample.has_value()) {
      h = (*blocks.resample)(h);
      skips.push_back(h);
    }
  }

  h = apply_res_block(*mid_block1_, h, time_emb, training, rng);
  h = apply_attention(*mid_attn_, h);
  h = apply_res_block(*mid_block2_, h, time_emb, training, rng);

  for (const auto& blocks : up_) {
    for (std::size_t i = 0; i < blocks.res.size(); ++i) {
      DP_CHECK(!skips.empty(), "UNet::forward: skip stack underflow");
      Var skip = skips.back();
      skips.pop_back();
      h = apply_res_block(blocks.res[i], nn::concat_channels(h, skip),
                          time_emb, training, rng);
      if (blocks.attn[i].has_value()) {
        h = apply_attention(*blocks.attn[i], h);
      }
    }
    if (blocks.resample.has_value()) {
      h = (*blocks.resample)(
          nn::upsample_nearest2(h, blocks.resample->padding), {});
    }
  }
  DP_CHECK(skips.empty(), "UNet::forward: unconsumed skips");

  return (*head_conv_)(head_norm_->silu_into(h, *head_conv_), {});
}

Var logit_difference(const Var& logits, std::int64_t in_channels) {
  DP_REQUIRE(logits.dim(1) == 2 * in_channels,
             "logit_difference: expected 2 logits per input channel");
  Var l0 = nn::slice_channels(logits, 0, in_channels);
  Var l1 = nn::slice_channels(logits, in_channels, in_channels);
  return nn::sub(l1, l0);
}

Var logits_to_prob1(const Var& logits, std::int64_t in_channels) {
  return nn::sigmoid(logit_difference(logits, in_channels));
}

}  // namespace diffpattern::unet
