#include "nn/optim.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"
#include "tensor/parallel.h"

namespace diffpattern::nn {

Adam::Adam(std::vector<Var> params, AdamConfig config)
    : params_(std::move(params)), config_(config) {
  DP_REQUIRE(!params_.empty(), "Adam: no parameters");
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  offsets_.push_back(0);
  for (const auto& p : params_) {
    DP_REQUIRE(p.defined() && p.requires_grad(),
               "Adam: parameter must require gradients");
    m_.emplace_back(p.value().shape(), 0.0F);
    v_.emplace_back(p.value().shape(), 0.0F);
    offsets_.push_back(offsets_.back() + p.value().numel());
  }
}

void Adam::zero_grad() {
  for (auto& p : params_) {
    p.zero_grad();
  }
}

double Adam::step() {
  // Global gradient norm.
  double norm_sq = 0.0;
  for (const auto& p : params_) {
    const Tensor& g = p.grad();
    for (std::int64_t i = 0; i < g.numel(); ++i) {
      norm_sq += static_cast<double>(g[i]) * g[i];
    }
  }
  const double norm = std::sqrt(norm_sq);
  double clip_scale = 1.0;
  if (config_.grad_clip_norm > 0.0F && norm > config_.grad_clip_norm) {
    clip_scale = config_.grad_clip_norm / norm;
  }

  ++t_;
  const double bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
  // Elements [j0, j1) of parameter i: each element's update reads and
  // writes only that element, so the bytes do not depend on the chunking.
  const auto update = [&](std::size_t i, std::int64_t j0, std::int64_t j1) {
    Tensor& value = params_[i].mutable_value();
    const Tensor& g = params_[i].grad();
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    for (std::int64_t j = j0; j < j1; ++j) {
      const float gj = static_cast<float>(g[j] * clip_scale);
      m[j] = config_.beta1 * m[j] + (1.0F - config_.beta1) * gj;
      v[j] = config_.beta2 * v[j] + (1.0F - config_.beta2) * gj * gj;
      const double mhat = m[j] / bc1;
      const double vhat = v[j] / bc2;
      value[j] -= static_cast<float>(config_.learning_rate * mhat /
                                     (std::sqrt(vhat) + config_.eps));
    }
  };
  // One region over every parameter's elements laid end to end.
  tensor::parallel_elements(
      offsets_.back(), [&](std::int64_t e0, std::int64_t e1) {
        auto i = static_cast<std::size_t>(
            std::upper_bound(offsets_.begin(), offsets_.end(), e0) -
            offsets_.begin() - 1);
        for (auto e = e0; e < e1; ++i) {
          const auto end = std::min(e1, offsets_[i + 1]);
          update(i, e - offsets_[i], end - offsets_[i]);
          e = end;
        }
      });
  return norm;
}

}  // namespace diffpattern::nn
