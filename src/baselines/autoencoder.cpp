#include "baselines/autoencoder.h"

#include <cmath>

#include "common/contracts.h"
#include "nn/ops.h"
#include "tensor/tensor_ops.h"

namespace diffpattern::baselines {

using nn::Var;
using tensor::Tensor;

struct ConvAutoencoder::Net {
  // Declaration order matters: the registry must outlive (and precede) the
  // layers that register into it.
  nn::ParamRegistry registry;
  nn::Conv2d enc1;
  nn::Conv2d enc2;
  std::int64_t flat_dim;
  nn::Linear to_mu;
  nn::Linear to_logvar;
  nn::Linear from_z;
  nn::Conv2d dec1;
  nn::Conv2d dec2;

  Net(common::Rng& rng, const AutoencoderConfig& cfg, std::int64_t in_channels,
      std::int64_t side)
      : enc1(registry, rng, "enc1", in_channels, cfg.base_channels, 3, 2, 1),
        enc2(registry, rng, "enc2", cfg.base_channels, 2 * cfg.base_channels,
             3, 2, 1),
        flat_dim(2 * cfg.base_channels * (side / 4) * (side / 4)),
        to_mu(registry, rng, "to_mu", flat_dim, cfg.latent_dim),
        to_logvar(registry, rng, "to_logvar", flat_dim, cfg.latent_dim),
        from_z(registry, rng, "from_z", cfg.latent_dim, flat_dim),
        dec1(registry, rng, "dec1", 2 * cfg.base_channels, cfg.base_channels,
             3, 1, 1),
        dec2(registry, rng, "dec2", cfg.base_channels, in_channels, 3, 1, 1) {}
};

ConvAutoencoder::ConvAutoencoder(AutoencoderConfig config,
                                 layout::DeepSquishConfig fold,
                                 std::int64_t folded_side, std::uint64_t seed)
    : config_(config), fold_(fold), side_(folded_side) {
  DP_REQUIRE(side_ % 4 == 0,
             "ConvAutoencoder: folded side must be divisible by 4");
  common::Rng rng(seed);
  net_ = std::make_unique<Net>(rng, config_, fold_.channels, side_);
  nn::AdamConfig adam;
  adam.learning_rate = config_.learning_rate;
  adam.grad_clip_norm = 1.0F;
  optimizer_ = std::make_unique<nn::Adam>(net_->registry.params(), adam);
}

ConvAutoencoder::~ConvAutoencoder() = default;

std::string ConvAutoencoder::name() const {
  return config_.variational ? "VCAE" : "CAE";
}

Var ConvAutoencoder::encode_mu(const Var& x) const {
  Var h = nn::relu(net_->enc1(x));
  h = nn::relu(net_->enc2(h));
  h = nn::reshape(h, {x.dim(0), net_->flat_dim});
  return net_->to_mu(h);
}

Var ConvAutoencoder::decode(const Var& z) const {
  const auto n = z.dim(0);
  const auto quarter = side_ / 4;
  Var h = nn::relu(net_->from_z(z));
  h = nn::reshape(h, {n, 2 * config_.base_channels, quarter, quarter});
  h = nn::relu(net_->dec1(nn::upsample_nearest2(h)));
  return net_->dec2(nn::upsample_nearest2(h));  // Logits.
}

void ConvAutoencoder::train(const datagen::Dataset& dataset,
                            std::int64_t iterations, common::Rng& rng) {
  for (std::int64_t it = 0; it < iterations; ++it) {
    optimizer_->zero_grad();
    const Tensor x0 = dataset.sample_training_batch(config_.batch_size, rng);
    Var x(x0);
    Var h = nn::relu(net_->enc1(x));
    h = nn::relu(net_->enc2(h));
    h = nn::reshape(h, {x0.dim(0), net_->flat_dim});
    Var mu = net_->to_mu(h);
    Var z = mu;
    Var kl;
    if (config_.variational) {
      // sigma = softplus(logvar_head / 2): smooth, strictly positive.
      Var sigma = nn::softplus(nn::scale(net_->to_logvar(h), 0.5F));
      Tensor eps(mu.value().shape());
      for (std::int64_t i = 0; i < eps.numel(); ++i) {
        eps[i] = static_cast<float>(rng.normal());
      }
      z = nn::add(mu, nn::mul_const(sigma, eps));
      // KL(N(mu, sigma^2) || N(0, 1)) =
      //   0.5 * (mu^2 + sigma^2) - log(sigma) - 0.5, per dimension.
      Var kl_terms = nn::add_scalar(
          nn::sub(nn::scale(nn::add(nn::mul(mu, mu), nn::mul(sigma, sigma)),
                            0.5F),
                  nn::log_clamped(sigma, 1e-6F)),
          -0.5F);
      kl = nn::mean_all(kl_terms);
    }
    Var logits = decode(z);
    // BCE with logits against the binary target.
    Var bce = nn::mean_all(
        nn::sub(nn::softplus(logits), nn::mul_const(logits, x0)));
    Var loss = config_.variational
                   ? nn::add(bce, nn::scale(kl, config_.kl_weight))
                   : bce;
    loss.backward();
    optimizer_->step();
  }

  // Fit the empirical latent distribution for CAE generation.
  nn::NoGradGuard no_grad;
  const auto all = dataset.folded_batch(dataset.train_indices);
  const Var mu = encode_mu(Var(all));
  const auto n = mu.dim(0);
  const auto d = mu.dim(1);
  Tensor mean({d}, 0.0F);
  Tensor stddev({d}, 0.0F);
  for (std::int64_t j = 0; j < d; ++j) {
    double m = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      m += mu.value()[i * d + j];
    }
    m /= static_cast<double>(n);
    double v = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      const double diff = mu.value()[i * d + j] - m;
      v += diff * diff;
    }
    v /= std::max<double>(1.0, static_cast<double>(n - 1));
    mean[j] = static_cast<float>(m);
    stddev[j] = static_cast<float>(std::sqrt(v) + 1e-4);
  }
  latent_mean_ = mean;
  latent_std_ = stddev;
}

GenerationBatch ConvAutoencoder::generate(std::int64_t count,
                                          common::Rng& rng) {
  DP_REQUIRE(count >= 1, "generate: count must be >= 1");
  if (!config_.variational) {
    DP_REQUIRE(latent_mean_.has_value(),
               "CAE generation requires train() first");
  }
  nn::NoGradGuard no_grad;
  GenerationBatch batch;
  const auto d = config_.latent_dim;
  Tensor z({count, d});
  for (std::int64_t i = 0; i < count; ++i) {
    for (std::int64_t j = 0; j < d; ++j) {
      double value = rng.normal();
      if (!config_.variational) {
        value = (*latent_mean_)[j] + value * (*latent_std_)[j];
      }
      z[i * d + j] = static_cast<float>(value);
    }
  }
  const Var logits = decode(Var(z));
  const auto per = logits.numel() / count;
  for (std::int64_t i = 0; i < count; ++i) {
    Tensor one({fold_.channels, side_, side_});
    for (std::int64_t j = 0; j < per; ++j) {
      // Threshold at logit 0 (= probability 0.5).
      one[j] = logits.value()[i * per + j] >= 0.0F ? 1.0F : 0.0F;
    }
    batch.topologies.push_back(layout::unfold_topology(one, fold_));
  }
  return batch;
}

std::vector<double> ConvAutoencoder::per_sample_reconstruction_bce(
    const Tensor& folded) {
  nn::NoGradGuard no_grad;
  DP_REQUIRE(folded.rank() == 4, "per_sample_reconstruction_bce: [N,C,H,W]");
  const auto n = folded.dim(0);
  const auto per = folded.numel() / n;
  const Var logits = decode(encode_mu(Var(folded)));
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  for (std::int64_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::int64_t j = 0; j < per; ++j) {
      const double z = logits.value()[i * per + j];
      const double target = folded[i * per + j];
      acc += std::max(z, 0.0) + std::log1p(std::exp(-std::abs(z))) -
             target * z;
    }
    out[static_cast<std::size_t>(i)] = acc / static_cast<double>(per);
  }
  return out;
}

}  // namespace diffpattern::baselines
