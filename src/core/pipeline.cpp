#include "core/pipeline.h"

#include <algorithm>
#include <limits>

#include "common/contracts.h"
#include "nn/checkpoint.h"

namespace diffpattern::core {

using geometry::BinaryGrid;
using layout::SquishPattern;

PipelineConfig PipelineConfig::paper() {
  PipelineConfig cfg;
  cfg.dataset_tiles = 13869;
  cfg.grid_side = 128;
  cfg.channels = 16;
  cfg.schedule = diffusion::ScheduleConfig::paper();
  cfg.model_channels = 128;
  cfg.channel_mult = {1, 2, 2, 2};
  cfg.num_res_blocks = 2;
  cfg.attention_levels = {1};
  cfg.dropout = 0.1F;
  cfg.loss.lambda = 0.001F;
  cfg.adam = nn::AdamConfig{.learning_rate = 2e-4F, .grad_clip_norm = 1.0F};
  cfg.train_iterations = 500000;
  cfg.batch_size = 128;
  return cfg;
}

std::int64_t PipelineConfig::folded_side() const {
  layout::DeepSquishConfig fold;
  fold.channels = channels;
  const auto patch = fold.patch_side();
  DP_REQUIRE(grid_side % patch == 0,
             "PipelineConfig: grid_side must be divisible by sqrt(channels)");
  return grid_side / patch;
}

unet::UNetConfig PipelineConfig::unet_config() const {
  return to_model_config().unet_config();
}

service::ModelConfig PipelineConfig::to_model_config() const {
  service::ModelConfig cfg;
  cfg.grid_side = grid_side;
  cfg.channels = channels;
  cfg.schedule = schedule;
  cfg.model_channels = model_channels;
  cfg.channel_mult = channel_mult;
  cfg.num_res_blocks = num_res_blocks;
  cfg.attention_levels = attention_levels;
  cfg.dropout = dropout;
  cfg.solver = solver;
  cfg.tile = datagen.tile;
  cfg.rules = datagen.rules;
  return cfg;
}

Evaluation evaluate_patterns(const std::vector<SquishPattern>& patterns,
                             const drc::DesignRules& rules) {
  Evaluation eval;
  eval.total_patterns = static_cast<std::int64_t>(patterns.size());
  std::vector<metrics::Complexity> all;
  std::vector<metrics::Complexity> legal;
  all.reserve(patterns.size());
  for (const auto& p : patterns) {
    const auto complexity = metrics::pattern_complexity(p);
    all.push_back(complexity);
    // A legal pattern must contain shapes: an empty tile passes every DRC
    // predicate vacuously but is not a usable layout pattern.
    if (p.topology.popcount() > 0 && drc::check_pattern(p, rules).clean()) {
      legal.push_back(complexity);
      ++eval.legal_patterns;
    }
  }
  eval.diversity = metrics::diversity_entropy(all);
  eval.legal_diversity = metrics::diversity_entropy(legal);
  return eval;
}

SquishPattern assign_library_deltas(const BinaryGrid& topology,
                                    const legalize::DeltaLibrary& library,
                                    geometry::Coord tile_width,
                                    geometry::Coord tile_height,
                                    common::Rng& rng) {
  DP_REQUIRE(!library.empty(), "assign_library_deltas: empty library");
  const auto pick = [&](const std::vector<std::vector<geometry::Coord>>& pool,
                        std::int64_t count, geometry::Coord total) {
    const auto& src = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    std::vector<geometry::Coord> out(static_cast<std::size_t>(count));
    const auto n = static_cast<std::int64_t>(src.size());
    geometry::Coord sum = 0;
    for (std::int64_t i = 0; i < count; ++i) {
      out[static_cast<std::size_t>(i)] =
          src[static_cast<std::size_t>(std::min(n - 1, i * n / count))];
      sum += out[static_cast<std::size_t>(i)];
    }
    // Rescale to the tile span (largest-delta absorbs rounding).
    std::size_t largest = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::max<geometry::Coord>(
          1, out[i] * total / std::max<geometry::Coord>(1, sum));
      if (out[i] > out[largest]) {
        largest = i;
      }
    }
    geometry::Coord new_sum = 0;
    for (const auto d : out) {
      new_sum += d;
    }
    out[largest] += total - new_sum;
    DP_CHECK(out[largest] > 0, "assign_library_deltas: rescale failed");
    return out;
  };
  SquishPattern pattern;
  pattern.topology = topology;
  pattern.dx = pick(library.dx_pool, topology.cols(), tile_width);
  pattern.dy = pick(library.dy_pool, topology.rows(), tile_height);
  pattern.validate();
  return pattern;
}

Pipeline::Pipeline(PipelineConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  (void)config_.folded_side();  // Validates grid/channel compatibility.
  schedule_ = std::make_unique<diffusion::BinarySchedule>(config_.schedule);
  model_ = std::make_unique<unet::UNet>(config_.unet_config(),
                                        rng_.split().engine()());
  service::ServiceConfig service_config;
  // Bounds peak sampling memory: large requests run in chunked rounds.
  service_config.max_fused_batch = 16;
  // This service runs offline experiments and the CLI, not a shared front
  // end; chunked rounds keep the memory bounded, so request sizes are not
  // capped.
  service_config.max_count = std::numeric_limits<std::int64_t>::max();
  service_config.max_geometries = std::numeric_limits<std::int64_t>::max();
  service_config.flow = config_.flow;
  service_ = std::make_unique<service::PatternService>(service_config);
}

const datagen::Dataset& Pipeline::dataset() {
  if (!dataset_.has_value()) {
    common::Rng data_rng = rng_.split();
    dataset_ = datagen::build_dataset(config_.datagen, config_.dataset_tiles,
                                      config_.grid_side, config_.channels,
                                      config_.test_fraction, data_rng);
  }
  return *dataset_;
}

void Pipeline::train(const ProgressFn& progress) {
  const auto& data = dataset();
  diffusion::DiffusionTrainer trainer(*model_, *schedule_, config_.loss,
                                      config_.adam);
  common::Rng train_rng = rng_.split();
  for (std::int64_t it = 0; it < config_.train_iterations; ++it) {
    const auto batch =
        data.sample_training_batch(config_.batch_size, train_rng);
    const auto breakdown = trainer.step(batch, train_rng);
    if (progress) {
      progress(it, breakdown);
    }
  }
  model_synced_ = false;
}

void Pipeline::sync_service() {
  if (model_synced_) {
    return;
  }
  const auto& data = dataset();
  const auto status = service_->models().register_model(
      kServiceModel, config_.to_model_config(), model_->registry(),
      data.library);
  if (status.code() == common::StatusCode::kInvalidArgument) {
    throw std::invalid_argument(status.to_string());
  }
  if (!status.ok()) {
    throw std::runtime_error(status.to_string());
  }
  model_synced_ = true;
}

service::PatternService& Pipeline::service() {
  sync_service();
  return *service_;
}

unet::UNet& Pipeline::model() { return *model_; }

void Pipeline::save_model(const std::string& path) {
  nn::save_checkpoint(model_->registry(), path);
}

void Pipeline::load_model(const std::string& path) {
  nn::load_checkpoint(model_->registry(), path);
  model_synced_ = false;
}

}  // namespace diffpattern::core
