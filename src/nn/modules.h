// Parameterized layers.
//
// Layers are plain structs owning their parameter Vars. Construction takes a
// ParamRegistry, which records every parameter under a hierarchical name so
// the optimizer and the checkpoint reader/writer see a stable, ordered list.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/autograd.h"
#include "nn/ops.h"

namespace diffpattern::nn {

/// Ordered registry of named trainable parameters.
class ParamRegistry {
 public:
  Var add(const std::string& name, Tensor init);

  const std::vector<Var>& params() const { return params_; }
  const std::vector<std::string>& names() const { return names_; }
  std::size_t size() const { return params_.size(); }

 private:
  std::vector<Var> params_;
  std::vector<std::string> names_;
};

/// Kaiming-normal initialization: N(0, sqrt(2 / fan_in)).
Tensor kaiming_normal(common::Rng& rng, Shape shape, std::int64_t fan_in);

struct Linear {
  Linear(ParamRegistry& registry, common::Rng& rng, const std::string& name,
         std::int64_t in_features, std::int64_t out_features);

  Var operator()(const Var& x) const { return linear(x, weight, bias); }

  Var weight;  // [out, in]
  Var bias;    // [out]
};

struct Conv2d {
  Conv2d(ParamRegistry& registry, common::Rng& rng, const std::string& name,
         std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t padding);

  Var operator()(const Var& x) const {
    return conv2d(x, weight, bias, stride, padding);
  }
  /// The conv of an input its producer laid out, plus `epilogue`.
  Var operator()(const ConvInput& x, const ConvEpilogue& epilogue) const {
    return conv2d(x, weight, bias, stride, padding, epilogue);
  }

  Var weight;  // [out, in, k, k]
  Var bias;    // [out]
  std::int64_t stride = 1;
  std::int64_t padding = 0;
};

struct GroupNorm {
  GroupNorm(ParamRegistry& registry, const std::string& name,
            std::int64_t channels, std::int64_t groups);

  Var operator()(const Var& x) const {
    return group_norm(x, gamma, beta, groups);
  }
  /// silu(norm(x)) as the input of `next` (nn::group_norm_silu).
  ConvInput silu_into(const Var& x, const Conv2d& next) const {
    return group_norm_silu(x, gamma, beta, groups, next.padding);
  }

  Var gamma;  // [C], initialized to ones
  Var beta;   // [C], initialized to zeros
  std::int64_t groups = 1;
};

struct LayerNorm {
  LayerNorm(ParamRegistry& registry, const std::string& name,
            std::int64_t features);

  Var operator()(const Var& x) const { return layer_norm(x, gamma, beta); }

  Var gamma;
  Var beta;
};

struct Embedding {
  Embedding(ParamRegistry& registry, common::Rng& rng, const std::string& name,
            std::int64_t vocab, std::int64_t dim);

  Var operator()(const std::vector<std::int64_t>& ids) const {
    return embedding_lookup(table, ids);
  }

  Var table;  // [V, D]
};

/// Picks a GroupNorm group count that divides `channels` (<= preferred).
std::int64_t pick_group_count(std::int64_t channels,
                              std::int64_t preferred = 8);

}  // namespace diffpattern::nn
