// Pixel-based autoencoder baselines of Table I.
//
// CAE  (DeePattern [7]): convolutional autoencoder over folded topology
//   tensors; generation samples the empirical (diagonal Gaussian) latent
//   distribution of the training set and decodes.
// VCAE ([8]): the variational variant; the encoder outputs (mu, logvar),
//   training adds the KL regularizer, and generation decodes z ~ N(0, I).
//
// Both threshold the decoded continuous output at 0.5 — exactly the
// continuous-state workaround the paper's discrete diffusion removes
// (Sec. III-C "The naive idea...").
#pragma once

#include <memory>
#include <optional>

#include "baselines/generator.h"
#include "layout/deep_squish.h"
#include "nn/modules.h"
#include "nn/optim.h"

namespace diffpattern::baselines {

struct AutoencoderConfig {
  bool variational = false;   // false: CAE, true: VCAE
  std::int64_t base_channels = 16;
  std::int64_t latent_dim = 24;
  float kl_weight = 0.02F;    // VCAE only.
  float learning_rate = 1e-3F;
  std::int64_t batch_size = 8;
};

class ConvAutoencoder final : public TopologyGenerator {
 public:
  ConvAutoencoder(AutoencoderConfig config, layout::DeepSquishConfig fold,
                  std::int64_t folded_side, std::uint64_t seed);
  ~ConvAutoencoder() override;

  std::string name() const override;
  void train(const datagen::Dataset& dataset, std::int64_t iterations,
             common::Rng& rng) override;
  GenerationBatch generate(std::int64_t count, common::Rng& rng) override;

  /// Per-sample reconstruction BCE — the building block of the
  /// "validity" metric this repository reproduces only to critique
  /// (paper Sec. IV-F; see bench_discussion_validity).
  std::vector<double> per_sample_reconstruction_bce(
      const tensor::Tensor& folded);

 private:
  struct Net;
  nn::Var encode_mu(const nn::Var& x) const;
  nn::Var decode(const nn::Var& z) const;

  AutoencoderConfig config_;
  layout::DeepSquishConfig fold_;
  std::int64_t side_;
  std::unique_ptr<Net> net_;
  std::unique_ptr<nn::Adam> optimizer_;
  // Empirical latent moments (CAE generation); set after train().
  std::optional<tensor::Tensor> latent_mean_;
  std::optional<tensor::Tensor> latent_std_;
};

}  // namespace diffpattern::baselines
