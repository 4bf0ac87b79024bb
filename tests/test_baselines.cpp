#include <gtest/gtest.h>

#include <numeric>

#include "baselines/autoencoder.h"
#include "baselines/layoutransformer.h"
#include "baselines/legalgan.h"
#include "common/rng.h"
#include "datagen/datagen.h"
#include "drc/checker.h"

namespace db = diffpattern::baselines;
namespace dgen = diffpattern::datagen;
namespace dc = diffpattern::common;
namespace dg = diffpattern::geometry;
namespace dl = diffpattern::layout;

namespace {

const dgen::Dataset& shared_dataset() {
  static const dgen::Dataset dataset = [] {
    dgen::DatagenConfig cfg;
    cfg.min_shapes = 2;
    cfg.max_shapes = 4;
    dc::Rng rng(77);
    return dgen::build_dataset(cfg, 12, 16, 4, 0.0, rng);
  }();
  return dataset;
}

dl::DeepSquishConfig fold_config() {
  dl::DeepSquishConfig fold;
  fold.channels = 4;
  return fold;
}

}  // namespace

TEST(Cae, TrainsAndGeneratesBinaryTopologies) {
  db::AutoencoderConfig cfg;
  cfg.variational = false;
  db::ConvAutoencoder cae(cfg, fold_config(), 8, 1);
  dc::Rng rng(2);
  EXPECT_THROW(cae.generate(1, rng), std::invalid_argument);  // Untrained.
  cae.train(shared_dataset(), 15, rng);
  const auto batch = cae.generate(4, rng);
  EXPECT_EQ(batch.topologies.size(), 4U);
  EXPECT_EQ(batch.invalid_count, 0);
  for (const auto& t : batch.topologies) {
    EXPECT_EQ(t.rows(), 16);
    EXPECT_EQ(t.cols(), 16);
  }
}

TEST(Cae, ReconstructionImprovesWithTraining) {
  db::AutoencoderConfig cfg;
  cfg.variational = false;
  db::ConvAutoencoder cae(cfg, fold_config(), 8, 3);
  dc::Rng rng(4);
  const auto probe =
      shared_dataset().folded_batch(shared_dataset().train_indices);
  const auto mean_bce = [&cae, &probe] {
    const auto per_sample = cae.per_sample_reconstruction_bce(probe);
    return std::accumulate(per_sample.begin(), per_sample.end(), 0.0) /
           static_cast<double>(per_sample.size());
  };
  const double before = mean_bce();
  cae.train(shared_dataset(), 60, rng);
  const double after = mean_bce();
  EXPECT_LT(after, before * 0.9) << before << " -> " << after;
}

TEST(Vcae, TrainsAndGeneratesFromPrior) {
  db::AutoencoderConfig cfg;
  cfg.variational = true;
  db::ConvAutoencoder vcae(cfg, fold_config(), 8, 5);
  dc::Rng rng(6);
  vcae.train(shared_dataset(), 15, rng);
  const auto batch = vcae.generate(3, rng);  // No latent fit needed.
  EXPECT_EQ(batch.topologies.size(), 3U);
  EXPECT_EQ(vcae.name(), "VCAE");
}

TEST(LegalGan, ReducesCorruptionViolations) {
  // A LegalGAN trained briefly should at least reduce the DRC violation
  // count of randomly corrupted dataset topologies (learned morphological
  // cleanup) — the paper's motivation for CAE+LegalGAN rows in Table I.
  db::LegalGanConfig cfg;
  db::LegalGan gan(cfg, fold_config(), 8, 7);
  dc::Rng rng(8);
  gan.train(shared_dataset(), 40, rng);

  const auto& dataset = shared_dataset();
  std::int64_t corrupted_cells = 0;
  std::int64_t cleaned_cells = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& clean = dataset.patterns[i].topology;
    dg::BinaryGrid corrupted = clean;
    for (std::int64_t r = 0; r < corrupted.rows(); ++r) {
      for (std::int64_t c = 0; c < corrupted.cols(); ++c) {
        if (rng.bernoulli(0.08)) {
          corrupted.set(r, c, 1 - corrupted.get_unchecked(r, c));
        }
      }
    }
    const auto repaired = gan.legalize(corrupted);
    // Hamming distance to the clean original.
    for (std::int64_t r = 0; r < clean.rows(); ++r) {
      for (std::int64_t c = 0; c < clean.cols(); ++c) {
        corrupted_cells +=
            corrupted.get_unchecked(r, c) != clean.get_unchecked(r, c);
        cleaned_cells +=
            repaired.get_unchecked(r, c) != clean.get_unchecked(r, c);
      }
    }
  }
  EXPECT_LT(cleaned_cells, corrupted_cells)
      << "LegalGAN did not move corrupted topologies toward clean ones";
}

TEST(LegalGan, BatchApplicationPreservesCounts) {
  db::LegalGanConfig cfg;
  db::LegalGan gan(cfg, fold_config(), 8, 9);
  dc::Rng rng(10);
  gan.train(shared_dataset(), 5, rng);
  db::GenerationBatch batch;
  batch.topologies = {shared_dataset().patterns[0].topology,
                      shared_dataset().patterns[1].topology};
  batch.invalid_count = 3;
  const auto out = gan.legalize_batch(batch);
  EXPECT_EQ(out.topologies.size(), 2U);
  EXPECT_EQ(out.invalid_count, 3);
}

TEST(Tokenizer, EncodeDecodeRoundTrip) {
  const auto& dataset = shared_dataset();
  db::PolygonTokenizer tokenizer(16);
  for (std::size_t i = 0; i < dataset.patterns.size(); ++i) {
    const auto& topology = dataset.patterns[i].topology;
    const auto tokens = tokenizer.encode(topology);
    EXPECT_EQ(tokens.front(), db::PolygonTokenizer::kBos);
    EXPECT_EQ(tokens.back(), db::PolygonTokenizer::kEos);
    const auto decoded = tokenizer.decode(tokens);
    ASSERT_TRUE(decoded.has_value()) << "pattern " << i;
    EXPECT_EQ(*decoded, topology) << "pattern " << i;
  }
}

TEST(Tokenizer, RejectsMalformedSequences) {
  db::PolygonTokenizer tokenizer(8);
  // Unclosed polygon: start + one east edge + EOS.
  const std::vector<std::int64_t> unclosed = {
      db::PolygonTokenizer::kBos, tokenizer.coord_token(1),
      tokenizer.coord_token(1), tokenizer.edge_token(0, 2),
      db::PolygonTokenizer::kEos};
  EXPECT_FALSE(tokenizer.decode(unclosed).has_value());
  // Out-of-bounds walk.
  const std::vector<std::int64_t> oob = {
      db::PolygonTokenizer::kBos, tokenizer.coord_token(7),
      tokenizer.coord_token(7), tokenizer.edge_token(0, 8),
      db::PolygonTokenizer::kEos};
  EXPECT_FALSE(tokenizer.decode(oob).has_value());
  // Empty sequence.
  EXPECT_FALSE(tokenizer
                   .decode({db::PolygonTokenizer::kBos,
                            db::PolygonTokenizer::kEos})
                   .has_value());
}

TEST(Tokenizer, VocabLayoutIsDisjoint) {
  db::PolygonTokenizer tokenizer(16);
  EXPECT_EQ(tokenizer.vocab_size(), 5 + 5 * 16);
  EXPECT_EQ(tokenizer.coord_token(0), 4);
  EXPECT_EQ(tokenizer.coord_token(16), 20);
  EXPECT_EQ(tokenizer.edge_token(0, 1), 21);
  EXPECT_EQ(tokenizer.edge_token(3, 16), 5 + 5 * 16 - 1);
  EXPECT_THROW(tokenizer.edge_token(0, 0), std::invalid_argument);
  EXPECT_THROW(tokenizer.coord_token(17), std::invalid_argument);
}

TEST(LayouTransformer, TrainsAndGenerates) {
  db::TransformerConfig cfg;
  cfg.d_model = 32;
  cfg.layers = 1;
  cfg.max_len = 120;
  db::LayouTransformer model(cfg, 16, 11);
  dc::Rng rng(12);
  model.train(shared_dataset(), 8, rng);
  const auto batch = model.generate(3, rng);
  EXPECT_EQ(static_cast<std::int64_t>(batch.topologies.size()) +
                batch.invalid_count,
            3);
  for (const auto& t : batch.topologies) {
    EXPECT_EQ(t.rows(), 16);
    EXPECT_GT(t.popcount(), 0);
  }
}
