// Integration tests for the full DiffPattern pipeline at miniature scale:
// dataset -> train, then sample -> pre-filter -> legalize through typed
// requests against the pipeline's service -> evaluate.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/pipeline.h"
#include "drc/checker.h"

namespace dcore = diffpattern::core;
namespace dd = diffpattern::drc;
namespace dc = diffpattern::common;
namespace ds = diffpattern::service;

namespace {

dcore::PipelineConfig mini_config() {
  dcore::PipelineConfig cfg;
  cfg.dataset_tiles = 16;
  cfg.grid_side = 16;
  cfg.channels = 4;
  cfg.schedule.steps = 8;
  cfg.model_channels = 8;
  cfg.channel_mult = {1, 2};
  cfg.num_res_blocks = 1;
  cfg.attention_levels = {};
  cfg.dropout = 0.0F;
  cfg.train_iterations = 10;
  cfg.batch_size = 4;
  cfg.seed = 5;
  return cfg;
}

ds::GenerateRequest generate_request(std::int64_t count, std::uint64_t seed) {
  ds::GenerateRequest request;
  request.model = dcore::Pipeline::kServiceModel;
  request.count = count;
  request.seed = seed;
  return request;
}

ds::LegalizeTopologiesRequest legalize_request(
    std::vector<diffpattern::geometry::BinaryGrid> topologies,
    std::int64_t geometries_per_topology) {
  ds::LegalizeTopologiesRequest request;
  request.model = dcore::Pipeline::kServiceModel;
  request.topologies = std::move(topologies);
  request.geometries_per_topology = geometries_per_topology;
  request.seed = 11;
  return request;
}

}  // namespace

TEST(PipelineConfig, FoldedSideDerivation) {
  auto cfg = mini_config();
  EXPECT_EQ(cfg.folded_side(), 8);  // 16 / sqrt(4)
  cfg.grid_side = 15;
  EXPECT_THROW(cfg.folded_side(), std::invalid_argument);
}

TEST(PipelineConfig, PaperConfigMatchesSectionIVA) {
  const auto paper = dcore::PipelineConfig::paper();
  EXPECT_EQ(paper.grid_side, 128);
  EXPECT_EQ(paper.channels, 16);
  EXPECT_EQ(paper.folded_side(), 32);
  EXPECT_EQ(paper.schedule.steps, 1000);
  EXPECT_EQ(paper.model_channels, 128);
  EXPECT_EQ(paper.train_iterations, 500000);
  EXPECT_EQ(paper.batch_size, 128);
  EXPECT_FLOAT_EQ(paper.adam.learning_rate, 2e-4F);
  EXPECT_FLOAT_EQ(paper.loss.lambda, 0.001F);
}

TEST(Pipeline, DatasetIsBuiltOnceAndCached) {
  dcore::Pipeline pipeline(mini_config());
  const auto& a = pipeline.dataset();
  const auto& b = pipeline.dataset();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.patterns.size(), 16U);
}

TEST(Pipeline, TrainRunsAndReportsProgress) {
  dcore::Pipeline pipeline(mini_config());
  std::int64_t calls = 0;
  double last_loss = 0.0;
  pipeline.train([&](std::int64_t, const diffpattern::diffusion::LossBreakdown&
                                      loss) {
    ++calls;
    last_loss = loss.total;
    EXPECT_TRUE(std::isfinite(loss.total));
  });
  EXPECT_EQ(calls, 10);
  EXPECT_GT(last_loss, 0.0);
}

TEST(Pipeline, SampledTopologiesHaveDatasetShape) {
  dcore::Pipeline pipeline(mini_config());
  pipeline.train();
  ds::SampleTopologiesRequest request;
  request.model = dcore::Pipeline::kServiceModel;
  request.count = 3;
  request.seed = 4;
  const auto result = pipeline.service().sample_topologies(request);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  ASSERT_EQ(result->topologies.size(), 3U);
  for (const auto& t : result->topologies) {
    EXPECT_EQ(t.rows(), 16);
    EXPECT_EQ(t.cols(), 16);
  }
}

TEST(Pipeline, GenerateProducesOnlyDrcCleanPatterns) {
  // The legality guarantee of Table I: every emitted pattern is DRC-clean,
  // regardless of model quality (here: barely trained).
  auto cfg = mini_config();
  dcore::Pipeline pipeline(cfg);
  pipeline.train();
  const auto result = pipeline.service().generate(generate_request(6, 1));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->stats.topologies_requested, 6);
  EXPECT_EQ(result->stats.prefilter_rejected + result->stats.solver_rejected +
                static_cast<std::int64_t>(result->patterns.size()),
            6);
  for (const auto& p : result->patterns) {
    EXPECT_TRUE(dd::check_pattern(p, cfg.datagen.rules).clean());
    EXPECT_EQ(p.width(), cfg.datagen.tile);
  }
  EXPECT_GE(result->stats.solving_seconds, 0.0);
}

TEST(Pipeline, EvaluateCountsLegalityAndDiversity) {
  auto cfg = mini_config();
  dcore::Pipeline pipeline(cfg);
  const auto& data = pipeline.dataset();
  const auto eval =
      dcore::evaluate_patterns(data.patterns, cfg.datagen.rules);
  EXPECT_EQ(eval.total_patterns, 16);
  EXPECT_EQ(eval.legal_patterns, 16);  // Dataset is DRC-clean by contract.
  EXPECT_NEAR(eval.legality_ratio(), 1.0, 1e-12);
  EXPECT_GT(eval.diversity, 0.5);
  EXPECT_NEAR(eval.diversity, eval.legal_diversity, 1e-12);
}

TEST(Pipeline, AssignLibraryDeltasPreservesTileSpan) {
  auto cfg = mini_config();
  dcore::Pipeline pipeline(cfg);
  const auto& data = pipeline.dataset();
  dc::Rng rng(3);
  const auto pattern = dcore::assign_library_deltas(
      data.patterns.front().topology, data.library, cfg.datagen.tile,
      cfg.datagen.tile, rng);
  EXPECT_EQ(pattern.width(), cfg.datagen.tile);
  EXPECT_EQ(pattern.height(), cfg.datagen.tile);
}

TEST(Pipeline, ModelCheckpointRoundTrip) {
  const std::string path = "/tmp/dp_pipeline_ckpt.bin";
  auto cfg = mini_config();
  dcore::Pipeline a(cfg);
  a.train();
  a.save_model(path);
  dcore::Pipeline b(cfg);
  b.load_model(path);
  // Same weights -> same samples for the same internal seeds.
  const auto pa = a.model().registry().params();
  const auto pb = b.model().registry().params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::int64_t j = 0; j < pa[i].numel(); ++j) {
      ASSERT_FLOAT_EQ(pa[i].value()[j], pb[i].value()[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(Pipeline, GenerationIsSeedDeterministicAcrossInstances) {
  // Regression: two pipelines with the same config + seed train identical
  // weights, so the same request produces byte-identical patterns — the
  // service executes it through per-request RNG streams, worker pools, and
  // fused batches.
  auto cfg = mini_config();
  dcore::Pipeline a(cfg);
  dcore::Pipeline b(cfg);
  a.train();
  b.train();
  const auto ra = a.service().generate(generate_request(4, 21));
  const auto rb = b.service().generate(generate_request(4, 21));
  ASSERT_TRUE(ra.ok() && rb.ok());
  ASSERT_EQ(ra->patterns.size(), rb->patterns.size());
  for (std::size_t i = 0; i < ra->patterns.size(); ++i) {
    EXPECT_TRUE(ra->patterns[i].topology == rb->patterns[i].topology);
    EXPECT_EQ(ra->patterns[i].dx, rb->patterns[i].dx);
    EXPECT_EQ(ra->patterns[i].dy, rb->patterns[i].dy);
  }
}

TEST(Pipeline, LegalizeExternalTopologies) {
  auto cfg = mini_config();
  dcore::Pipeline pipeline(cfg);
  const auto& data = pipeline.dataset();
  // Feed dataset topologies through the assessment: all should pass the
  // pre-filter and nearly all should legalize.
  std::vector<diffpattern::geometry::BinaryGrid> topologies(
      data.patterns.size() > 4 ? 4 : data.patterns.size());
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    topologies[i] = data.patterns[i].topology;
  }
  const auto result =
      pipeline.service().legalize_topologies(legalize_request(topologies, 1));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->stats.prefilter_rejected, 0);
  EXPECT_GE(static_cast<std::int64_t>(result->patterns.size()), 3);
}

TEST(Pipeline, MultiGeometryGeneratesDistinctPatterns) {
  auto cfg = mini_config();
  dcore::Pipeline pipeline(cfg);
  const auto& data = pipeline.dataset();
  const std::vector<diffpattern::geometry::BinaryGrid> one = {
      data.patterns.front().topology};
  const auto result =
      pipeline.service().legalize_topologies(legalize_request(one, 5));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const auto& patterns = result->patterns;
  EXPECT_GE(patterns.size(), 2U);
  for (std::size_t i = 1; i < patterns.size(); ++i) {
    EXPECT_FALSE(patterns[i].dx == patterns[0].dx &&
                 patterns[i].dy == patterns[0].dy);
  }
}
