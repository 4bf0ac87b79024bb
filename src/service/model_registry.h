// Named store of trained model artifacts served by PatternService.
//
// A registered model bundles everything generation needs: the U-Net weights
// (copied in, so the trainer can keep mutating its own instance), the noise
// schedule, the deep-squish geometry, the solver configuration, the default
// rule deck, and the delta library for Solving-E initialization. Entries are
// immutable after registration and stay registered for the life of the
// registry; re-registering a name atomically replaces the entry without
// disturbing in-flight requests, which keep their shared_ptr to the old
// artifacts.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "diffusion/schedule.h"
#include "drc/rules.h"
#include "geometry/types.h"
#include "legalize/solver.h"
#include "unet/unet.h"

namespace diffpattern::service {

/// Everything needed to instantiate and serve one trained model.
struct ModelConfig {
  /// Topology matrix side (after padding) and deep-squish channel count;
  /// the model's spatial side is grid_side / sqrt(channels).
  std::int64_t grid_side = 16;
  std::int64_t channels = 4;

  diffusion::ScheduleConfig schedule{.steps = 50, .beta_start = 0.01,
                                     .beta_end = 0.5};
  std::int64_t model_channels = 32;
  std::vector<std::int64_t> channel_mult = {1, 2};
  std::int64_t num_res_blocks = 1;
  std::set<std::int64_t> attention_levels = {1};
  float dropout = 0.1F;

  legalize::SolverConfig solver;
  geometry::Coord tile = 2048;
  /// Default rule deck when a request names no rule set.
  drc::DesignRules rules = drc::standard_rules();

  /// Derived model input side M; error if grid_side/channels mismatch.
  common::Result<std::int64_t> folded_side() const;
  unet::UNetConfig unet_config() const;
};

struct ModelArtifacts {
  std::string name;
  ModelConfig config;
  std::unique_ptr<unet::UNet> model;
  std::unique_ptr<diffusion::BinarySchedule> schedule;
  legalize::DeltaLibrary library;
};

class ModelRegistry {
 public:
  /// Registers (or atomically replaces) `name`, copying `weights` into a
  /// fresh U-Net instance. INVALID_ARGUMENT on an empty/whitespace/control
  /// -character name (common::validate_resource_name), inconsistent
  /// config, or weight name/shape mismatch with the config's architecture.
  common::Status register_model(const std::string& name,
                                const ModelConfig& config,
                                const nn::ParamRegistry& weights,
                                legalize::DeltaLibrary library);

  /// Same, loading the weights from a checkpoint file (NOT_FOUND if the
  /// file is missing or not a checkpoint).
  common::Status register_checkpoint(const std::string& name,
                                     const ModelConfig& config,
                                     const std::string& checkpoint_path,
                                     legalize::DeltaLibrary library);

  /// NOT_FOUND when no model of that name is registered.
  common::Result<std::shared_ptr<const ModelArtifacts>> lookup(
      const std::string& name) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const ModelArtifacts>> models_;
};

}  // namespace diffpattern::service
