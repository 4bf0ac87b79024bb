#include "bench_common.h"

#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "common/compute_pool.h"
#include "common/timer.h"
#include "io/io.h"
#include "nn/checkpoint.h"

namespace diffpattern::bench {

BenchScale current_scale() {
  const char* env = std::getenv("DP_BENCH_SCALE");
  const std::string requested = env != nullptr ? env : "quick";
  if (requested == "full") {
    return BenchScale{.name = "full",
                      .dataset_tiles = 256,
                      .train_iterations = 1500,
                      .diffusion_steps = 100,
                      .model_channels = 32,
                      .table1_topologies = 400,
                      .diffpattern_l_geometries = 10,
                      .autoencoder_train_iterations = 3000,
                      .gan_train_iterations = 800,
                      .transformer_train_iterations = 2000};
  }
  return BenchScale{.name = "quick",
                    .dataset_tiles = 96,
                    .train_iterations = 900,
                    .diffusion_steps = 40,
                    .model_channels = 16,
                    .table1_topologies = 120,
                    .diffpattern_l_geometries = 5,
                    .autoencoder_train_iterations = 1500,
                    .gan_train_iterations = 400,
                    .transformer_train_iterations = 1000};
}

std::string output_directory() {
  return io::ensure_directory("bench_out");
}

core::PipelineConfig bench_pipeline_config() {
  const auto scale = current_scale();
  core::PipelineConfig cfg;
  // Denser tiles than the datagen defaults: more shapes at a coarser snap
  // quantum, so topologies carry enough structure for all methods to learn.
  cfg.datagen.quantum = 64;
  cfg.datagen.min_shapes = 4;
  cfg.datagen.max_shapes = 9;
  cfg.datagen.extend_probability = 0.5;
  cfg.dataset_tiles = scale.dataset_tiles;
  cfg.test_fraction = 0.2;
  cfg.grid_side = 16;
  cfg.channels = 4;
  cfg.schedule.steps = scale.diffusion_steps;
  cfg.model_channels = scale.model_channels;
  cfg.channel_mult = {1, 2};
  cfg.num_res_blocks = 1;
  cfg.attention_levels = {1};
  cfg.dropout = 0.1F;
  cfg.adam.learning_rate = 1e-3F;
  cfg.train_iterations = scale.train_iterations;
  cfg.batch_size = 8;
  cfg.seed = 2023;  // DAC 2023.
  return cfg;
}

core::Pipeline& shared_trained_pipeline() {
  static core::Pipeline pipeline = [] {
    const auto scale = current_scale();
    core::Pipeline p(bench_pipeline_config());
    const std::string ckpt =
        output_directory() + "/diffusion_" + scale.name + ".ckpt";
    p.dataset();  // Build eagerly so the log reads naturally.
    if (std::filesystem::exists(ckpt)) {
      std::cout << "[bench] loading cached diffusion checkpoint: " << ckpt
                << "\n";
      p.load_model(ckpt);
      return p;
    }
    std::cout << "[bench] training diffusion model ("
              << scale.train_iterations << " iterations, scale "
              << scale.name << ")...\n";
    common::Timer timer;
    p.train([&](std::int64_t it, const diffusion::LossBreakdown& loss) {
      if ((it + 1) % 50 == 0) {
        std::cout << "[bench]   iter " << (it + 1) << "  loss "
                  << loss.total << "  ce " << loss.cross_entropy << "\n";
      }
    });
    std::cout << "[bench] training took " << timer.seconds() << " s\n";
    p.save_model(ckpt);
    return p;
  }();
  return pipeline;
}

service::PatternService& shared_service() {
  return shared_trained_pipeline().service();
}

service::GenerateResult service_generate(
    std::int64_t count, std::int64_t geometries_per_topology,
    std::uint64_t seed) {
  service::GenerateRequest request;
  request.model = core::Pipeline::kServiceModel;
  request.count = count;
  request.geometries_per_topology = geometries_per_topology;
  request.seed = seed;
  auto result = shared_service().generate(request);
  if (!result.ok()) {
    std::cerr << "[bench] generate failed: " << result.status().to_string()
              << "\n";
    std::abort();
  }
  return std::move(result).value();
}

std::vector<geometry::BinaryGrid> service_sample_topologies(
    std::int64_t count, std::uint64_t seed) {
  service::SampleTopologiesRequest request;
  request.model = core::Pipeline::kServiceModel;
  request.count = count;
  request.seed = seed;
  auto result = shared_service().sample_topologies(request);
  if (!result.ok()) {
    std::cerr << "[bench] sample_topologies failed: "
              << result.status().to_string() << "\n";
    std::abort();
  }
  return std::move(result->topologies);
}

void print_header(const std::string& title) {
  std::cout << "\n" << std::string(72, '=') << "\n"
            << title << "\n"
            << std::string(72, '=') << "\n";
}

std::string write_bench_json(
    const std::string& name,
    const std::vector<std::pair<std::string, double>>& metrics) {
  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"" << name << "\",\n"
       << "  \"schema_version\": " << kBenchJsonSchemaVersion << ",\n"
       << "  \"git_describe\": \"" <<
#ifdef DP_GIT_DESCRIBE
      DP_GIT_DESCRIBE
#else
      "unknown"
#endif
       << "\",\n"
       << "  \"scale\": \"" << current_scale().name << "\",\n"
       << "  \"threads\": " << diffpattern::common::global_compute_threads();
  json << std::setprecision(9);
  for (const auto& [key, value] : metrics) {
    json << ",\n  \"" << key << "\": " << value;
  }
  json << "\n}\n";
  const auto path = output_directory() + "/BENCH_" + name + ".json";
  io::write_text_file(path, json.str());
  std::cout << "bench JSON written to " << path << "\n";
  return path;
}

}  // namespace diffpattern::bench
