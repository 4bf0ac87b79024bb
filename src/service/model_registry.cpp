#include "service/model_registry.h"

#include <cmath>

#include "nn/checkpoint.h"

namespace diffpattern::service {

common::Result<std::int64_t> ModelConfig::folded_side() const {
  const auto patch =
      static_cast<std::int64_t>(std::llround(std::sqrt(
          static_cast<double>(channels))));
  if (channels < 1 || patch * patch != channels) {
    return common::Status::InvalidArgument(
        "ModelConfig: channels must be a positive perfect square");
  }
  if (grid_side < patch || grid_side % patch != 0) {
    return common::Status::InvalidArgument(
        "ModelConfig: grid_side must be divisible by sqrt(channels)");
  }
  return grid_side / patch;
}

unet::UNetConfig ModelConfig::unet_config() const {
  unet::UNetConfig cfg;
  cfg.in_channels = channels;
  cfg.out_channels = 2 * channels;
  cfg.model_channels = model_channels;
  cfg.channel_mult = channel_mult;
  cfg.num_res_blocks = num_res_blocks;
  cfg.attention_levels = attention_levels;
  cfg.dropout = dropout;
  return cfg;
}

namespace {

/// Copies parameter values from `src` into `dst`, requiring identical
/// names and shapes (i.e. the same architecture).
common::Status copy_parameters(const nn::ParamRegistry& src,
                               nn::ParamRegistry& dst) {
  if (src.size() != dst.size()) {
    return common::Status::InvalidArgument(
        "register_model: weight count mismatch with config architecture");
  }
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (src.names()[i] != dst.names()[i]) {
      return common::Status::InvalidArgument(
          "register_model: parameter name mismatch at '" + src.names()[i] +
          "' vs '" + dst.names()[i] + "'");
    }
    const auto& from = src.params()[i].value();
    nn::Var to = dst.params()[i];
    if (from.shape() != to.value().shape()) {
      return common::Status::InvalidArgument(
          "register_model: shape mismatch for parameter '" + src.names()[i] +
          "'");
    }
    to.mutable_value() = from;
  }
  return common::Status::Ok();
}

common::Result<std::shared_ptr<ModelArtifacts>> build_artifacts(
    const std::string& name, const ModelConfig& config,
    legalize::DeltaLibrary library) {
  const auto valid = common::validate_resource_name(name, "register_model");
  if (!valid.ok()) {
    return valid;
  }
  const auto folded = config.folded_side();
  if (!folded.ok()) {
    return folded.status();
  }
  auto artifacts = std::make_shared<ModelArtifacts>();
  artifacts->name = name;
  artifacts->config = config;
  try {
    artifacts->model =
        std::make_unique<unet::UNet>(config.unet_config(), /*seed=*/0);
    artifacts->schedule =
        std::make_unique<diffusion::BinarySchedule>(config.schedule);
  } catch (const std::exception& e) {
    return common::Status::InvalidArgument(
        std::string("register_model: bad model config: ") + e.what());
  }
  artifacts->library = std::move(library);
  return artifacts;
}

}  // namespace

common::Status ModelRegistry::register_model(const std::string& name,
                                             const ModelConfig& config,
                                             const nn::ParamRegistry& weights,
                                             legalize::DeltaLibrary library) {
  auto built = build_artifacts(name, config, std::move(library));
  if (!built.ok()) {
    return built.status();
  }
  auto artifacts = std::move(built).value();
  const auto copied = copy_parameters(weights, artifacts->model->registry());
  if (!copied.ok()) {
    return copied;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  models_[name] = std::move(artifacts);
  return common::Status::Ok();
}

common::Status ModelRegistry::register_checkpoint(
    const std::string& name, const ModelConfig& config,
    const std::string& checkpoint_path, legalize::DeltaLibrary library) {
  auto built = build_artifacts(name, config, std::move(library));
  if (!built.ok()) {
    return built.status();
  }
  auto artifacts = std::move(built).value();
  if (!nn::is_checkpoint_file(checkpoint_path)) {
    return common::Status::NotFound("register_checkpoint: '" +
                                    checkpoint_path +
                                    "' is missing or not a checkpoint");
  }
  try {
    nn::load_checkpoint(artifacts->model->registry(), checkpoint_path);
  } catch (const std::exception& e) {
    return common::Status::InvalidArgument(
        std::string("register_checkpoint: ") + e.what());
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  models_[name] = std::move(artifacts);
  return common::Status::Ok();
}

common::Result<std::shared_ptr<const ModelArtifacts>> ModelRegistry::lookup(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = models_.find(name);
  if (it == models_.end()) {
    return common::Status::NotFound("model '" + name + "' is not registered");
  }
  return it->second;
}

}  // namespace diffpattern::service
