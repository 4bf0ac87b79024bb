// DiffPattern training bootstrap (paper Fig. 4): dataset -> deep squish ->
// discrete diffusion training. Generation (topology sampling -> pre-filter
// -> white-box legalization -> DRC) is served by service::PatternService:
// Pipeline owns the dataset and the model, and registers the trained
// weights with its embedded service under Pipeline::kServiceModel.
// Callers issue typed requests with explicit seeds against service().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "diffusion/diffusion.h"
#include "drc/checker.h"
#include "legalize/solver.h"
#include "metrics/metrics.h"
#include "service/pattern_service.h"

namespace diffpattern::core {

struct PipelineConfig {
  datagen::DatagenConfig datagen;
  std::int64_t dataset_tiles = 128;
  double test_fraction = 0.2;

  /// Topology matrix side (after pad_to) and deep-squish channel count;
  /// model spatial size M = grid_side / sqrt(channels).
  std::int64_t grid_side = 16;
  std::int64_t channels = 4;

  diffusion::ScheduleConfig schedule{.steps = 50, .beta_start = 0.01,
                                     .beta_end = 0.5};
  std::int64_t model_channels = 32;
  std::vector<std::int64_t> channel_mult = {1, 2};
  std::int64_t num_res_blocks = 1;
  std::set<std::int64_t> attention_levels = {1};
  float dropout = 0.1F;

  diffusion::LossConfig loss;
  nn::AdamConfig adam{.learning_rate = 1e-3F, .grad_clip_norm = 1.0F};
  std::int64_t train_iterations = 200;
  std::int64_t batch_size = 8;

  legalize::SolverConfig solver;
  std::uint64_t seed = 1;

  /// Flow-control policy handed to the embedded PatternService (admission
  /// windows, shedding thresholds, stream buffer bound — see
  /// service::FlowControlConfig), so the CLI can configure the service it
  /// exposes via service().
  service::FlowControlConfig flow;

  /// The paper's configuration for reference (Sec. IV-A): 2048 nm tiles,
  /// 128x128 topology folded to 16x32x32, K = 1000, U-Net [128, 256, 256,
  /// 256] with attention at 16x16, 0.5M iterations at batch 128. Running it
  /// requires the authors' 8-GPU budget; see DESIGN.md for the scaling
  /// rationale.
  static PipelineConfig paper();

  /// Derived model input side M.
  std::int64_t folded_side() const;
  unet::UNetConfig unet_config() const;
  /// The service-side view of this configuration (model architecture,
  /// schedule, solver, tile, default rule deck).
  service::ModelConfig to_model_config() const;
};

struct Evaluation {
  std::int64_t total_patterns = 0;
  double diversity = 0.0;
  std::int64_t legal_patterns = 0;
  double legal_diversity = 0.0;
  double legality_ratio() const {
    return total_patterns == 0
               ? 0.0
               : static_cast<double>(legal_patterns) /
                     static_cast<double>(total_patterns);
  }
};

/// Scores a pattern set against `rules` (a Table I row).
Evaluation evaluate_patterns(const std::vector<layout::SquishPattern>& patterns,
                             const drc::DesignRules& rules);

/// Naive geometry assignment used by the pixel-based baselines in Table I:
/// a delta pair drawn from the dataset library with no constraint solving
/// (this is why baseline legality is low — paper Sec. IV-B).
layout::SquishPattern assign_library_deltas(
    const geometry::BinaryGrid& topology, const legalize::DeltaLibrary& library,
    geometry::Coord tile_width, geometry::Coord tile_height, common::Rng& rng);

class Pipeline {
 public:
  explicit Pipeline(PipelineConfig config);

  /// Name under which the trained model is registered in service().
  static constexpr const char* kServiceModel = "default";

  /// Generates the dataset (idempotent).
  const datagen::Dataset& dataset();

  /// Trains the diffusion model for config.train_iterations steps.
  using ProgressFn =
      std::function<void(std::int64_t iteration,
                         const diffusion::LossBreakdown& loss)>;
  void train(const ProgressFn& progress = nullptr);

  unet::UNet& model();
  const PipelineConfig& config() const { return config_; }

  /// The underlying service, with this pipeline's trained model registered
  /// as kServiceModel (synced on first use and after train / load_model).
  /// Issue typed requests against it for concurrent batched generation.
  service::PatternService& service();

  void save_model(const std::string& path);
  void load_model(const std::string& path);

 private:
  /// (Re-)registers the current weights + delta library with the service.
  void sync_service();

  PipelineConfig config_;
  common::Rng rng_;
  std::optional<datagen::Dataset> dataset_;
  std::unique_ptr<unet::UNet> model_;
  std::unique_ptr<diffusion::BinarySchedule> schedule_;
  std::unique_ptr<service::PatternService> service_;
  bool model_synced_ = false;
};

}  // namespace diffpattern::core
