// Adam optimizer with optional global-norm gradient clipping, matching the
// paper's training setup (Adam, lr 2e-4, grad clip 1.0).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/autograd.h"

namespace diffpattern::nn {

struct AdamConfig {
  float learning_rate = 2e-4F;
  float beta1 = 0.9F;
  float beta2 = 0.999F;
  float eps = 1e-8F;
  /// Maximum global gradient L2 norm; <= 0 disables clipping.
  float grad_clip_norm = 1.0F;
};

class Adam {
 public:
  Adam(std::vector<Var> params, AdamConfig config);

  /// Applies one Adam update using the gradients currently stored on the
  /// parameters, after optional global-norm clipping. Returns the pre-clip
  /// global gradient norm (useful for logging and tests).
  double step();

  void zero_grad();

  const AdamConfig& config() const { return config_; }
  void set_learning_rate(float lr) { config_.learning_rate = lr; }
  std::int64_t steps_taken() const { return t_; }

 private:
  std::vector<Var> params_;
  AdamConfig config_;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  /// offsets_[i] = elements of params_[0..i): the parameters laid end to
  /// end, one index space for the update region.
  std::vector<std::int64_t> offsets_;
  std::int64_t t_ = 0;
};

}  // namespace diffpattern::nn
