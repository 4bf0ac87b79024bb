#include "nn/modules.h"

#include <cmath>

#include "common/contracts.h"

namespace diffpattern::nn {

Var ParamRegistry::add(const std::string& name, Tensor init) {
  for (const auto& existing : names_) {
    DP_REQUIRE(existing != name, "ParamRegistry: duplicate parameter " + name);
  }
  Var v(std::move(init), /*requires_grad=*/true);
  params_.push_back(v);
  names_.push_back(name);
  return v;
}

Tensor kaiming_normal(common::Rng& rng, Shape shape, std::int64_t fan_in) {
  DP_REQUIRE(fan_in > 0, "kaiming_normal: fan_in must be positive");
  Tensor t(std::move(shape));
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
  return t;
}

Linear::Linear(ParamRegistry& registry, common::Rng& rng,
               const std::string& name, std::int64_t in_features,
               std::int64_t out_features)
    : weight(registry.add(
          name + ".weight",
          kaiming_normal(rng, {out_features, in_features}, in_features))),
      bias(registry.add(name + ".bias", Tensor({out_features}, 0.0F))) {}

Conv2d::Conv2d(ParamRegistry& registry, common::Rng& rng,
               const std::string& name, std::int64_t in_channels,
               std::int64_t out_channels, std::int64_t kernel,
               std::int64_t stride_in, std::int64_t padding_in)
    : weight(registry.add(
          name + ".weight",
          kaiming_normal(rng, {out_channels, in_channels, kernel, kernel},
                         in_channels * kernel * kernel))),
      bias(registry.add(name + ".bias", Tensor({out_channels}, 0.0F))),
      stride(stride_in),
      padding(padding_in) {}

GroupNorm::GroupNorm(ParamRegistry& registry, const std::string& name,
                     std::int64_t channels, std::int64_t groups_in)
    : gamma(registry.add(name + ".gamma", Tensor({channels}, 1.0F))),
      beta(registry.add(name + ".beta", Tensor({channels}, 0.0F))),
      groups(groups_in) {
  DP_REQUIRE(channels % groups == 0, "GroupNorm: groups must divide channels");
}

LayerNorm::LayerNorm(ParamRegistry& registry, const std::string& name,
                     std::int64_t features)
    : gamma(registry.add(name + ".gamma", Tensor({features}, 1.0F))),
      beta(registry.add(name + ".beta", Tensor({features}, 0.0F))) {}

Embedding::Embedding(ParamRegistry& registry, common::Rng& rng,
                     const std::string& name, std::int64_t vocab,
                     std::int64_t dim)
    : table(registry.add(name + ".table",
                         kaiming_normal(rng, {vocab, dim}, dim))) {}

std::int64_t pick_group_count(std::int64_t channels, std::int64_t preferred) {
  DP_REQUIRE(channels >= 1, "pick_group_count: channels must be >= 1");
  for (std::int64_t g = std::min(preferred, channels); g > 1; --g) {
    if (channels % g == 0) {
      return g;
    }
  }
  return 1;
}

}  // namespace diffpattern::nn
