// Parameterized property tests for the squish representation: losslessness,
// canonical-form idempotence, and padding invariance across a sweep of
// random layout populations.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "layout/deep_squish.h"
#include "layout/squish.h"

namespace dl = diffpattern::layout;
namespace dg = diffpattern::geometry;
namespace dc = diffpattern::common;

namespace {

struct SquishCase {
  std::uint64_t seed;
  int rect_count;
  dg::Coord tile;
};

dl::Layout random_layout(const SquishCase& param) {
  dc::Rng rng(param.seed);
  dl::Layout l;
  l.width = param.tile;
  l.height = param.tile;
  for (int i = 0; i < param.rect_count; ++i) {
    const auto w = rng.uniform_int(4, param.tile / 3);
    const auto h = rng.uniform_int(4, param.tile / 3);
    const auto x0 = rng.uniform_int(0, param.tile - w);
    const auto y0 = rng.uniform_int(0, param.tile - h);
    l.rects.push_back(dg::Rect{x0, y0, x0 + w, y0 + h});
  }
  return l;
}

}  // namespace

class SquishProperty : public ::testing::TestWithParam<SquishCase> {};

TEST_P(SquishProperty, ExtractRestoreRoundTripIsLossless) {
  const auto layout = random_layout(GetParam());
  const auto pattern = dl::extract_squish(layout);
  const auto restored = dl::restore_layout(pattern);
  EXPECT_TRUE(dl::same_layout(pattern, dl::extract_squish(restored)));
}

TEST_P(SquishProperty, GeometricVectorsSumToTile) {
  const auto pattern = dl::extract_squish(random_layout(GetParam()));
  EXPECT_EQ(pattern.width(), GetParam().tile);
  EXPECT_EQ(pattern.height(), GetParam().tile);
}

TEST_P(SquishProperty, CanonicalizeIsIdempotent) {
  const auto pattern = dl::extract_squish(random_layout(GetParam()));
  const auto once = dl::canonicalize(pattern);
  const auto twice = dl::canonicalize(once);
  EXPECT_EQ(once.topology, twice.topology);
  EXPECT_EQ(once.dx, twice.dx);
  EXPECT_EQ(once.dy, twice.dy);
}

TEST_P(SquishProperty, CanonicalFormIsNoLargerAndDescribesSameLayout) {
  // Extraction can carry redundant scan lines when a rectangle edge lies in
  // the interior of another rectangle, so extraction output is not
  // guaranteed minimal — but canonicalization must only shrink it and must
  // preserve the geometry.
  const auto pattern = dl::extract_squish(random_layout(GetParam()));
  const auto canon = dl::canonicalize(pattern);
  EXPECT_LE(canon.topology.rows(), pattern.topology.rows());
  EXPECT_LE(canon.topology.cols(), pattern.topology.cols());
  EXPECT_TRUE(dl::same_layout(pattern, canon));
}

TEST_P(SquishProperty, PaddingPreservesGeometryAndCellCountGrows) {
  const auto pattern = dl::extract_squish(random_layout(GetParam()));
  const auto target_rows = pattern.topology.rows() + 5;
  const auto target_cols = pattern.topology.cols() + 3;
  const auto padded = dl::pad_to(pattern, target_rows, target_cols);
  EXPECT_EQ(padded.topology.rows(), target_rows);
  EXPECT_EQ(padded.topology.cols(), target_cols);
  EXPECT_TRUE(dl::same_layout(pattern, padded));
  // Shape area in nm^2 is invariant under padding.
  std::int64_t area_before = 0;
  for (std::int64_t r = 0; r < pattern.topology.rows(); ++r) {
    for (std::int64_t c = 0; c < pattern.topology.cols(); ++c) {
      if (pattern.topology.get_unchecked(r, c)) {
        area_before += pattern.dx[static_cast<std::size_t>(c)] *
                       pattern.dy[static_cast<std::size_t>(r)];
      }
    }
  }
  std::int64_t area_after = 0;
  for (std::int64_t r = 0; r < padded.topology.rows(); ++r) {
    for (std::int64_t c = 0; c < padded.topology.cols(); ++c) {
      if (padded.topology.get_unchecked(r, c)) {
        area_after += padded.dx[static_cast<std::size_t>(c)] *
                      padded.dy[static_cast<std::size_t>(r)];
      }
    }
  }
  EXPECT_EQ(area_before, area_after);
}

INSTANTIATE_TEST_SUITE_P(
    RandomLayouts, SquishProperty,
    ::testing::Values(SquishCase{1, 1, 128}, SquishCase{2, 2, 128},
                      SquishCase{3, 4, 256}, SquishCase{4, 6, 256},
                      SquishCase{5, 8, 512}, SquishCase{6, 10, 512},
                      SquishCase{7, 3, 1024}, SquishCase{8, 12, 2048},
                      SquishCase{9, 5, 333},   // Non-power-of-two tile.
                      SquishCase{10, 7, 777}));

class DeepSquishChannels : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(DeepSquishChannels, FoldUnfoldLosslessForEveryChannelCount) {
  const auto channels = GetParam();
  dl::DeepSquishConfig cfg;
  cfg.channels = channels;
  const auto patch = cfg.patch_side();
  const auto side = patch * 6;
  dc::Rng rng(channels);
  dg::BinaryGrid grid(side, side);
  for (std::int64_t r = 0; r < side; ++r) {
    for (std::int64_t c = 0; c < side; ++c) {
      grid.set(r, c, rng.bernoulli(0.35) ? 1 : 0);
    }
  }
  const auto folded = dl::fold_topology(grid, cfg);
  EXPECT_EQ(folded.dim(0), channels);
  EXPECT_EQ(folded.dim(1), side / patch);
  EXPECT_EQ(dl::unfold_topology(folded, cfg), grid);
}

TEST_P(DeepSquishChannels, PopcountInvariantUnderFolding) {
  const auto channels = GetParam();
  dl::DeepSquishConfig cfg;
  cfg.channels = channels;
  const auto side = cfg.patch_side() * 4;
  dc::Rng rng(channels + 100);
  dg::BinaryGrid grid(side, side);
  for (std::int64_t r = 0; r < side; ++r) {
    for (std::int64_t c = 0; c < side; ++c) {
      grid.set(r, c, rng.bernoulli(0.5) ? 1 : 0);
    }
  }
  const auto folded = dl::fold_topology(grid, cfg);
  double ones = 0;
  for (std::int64_t i = 0; i < folded.numel(); ++i) {
    ones += folded[i];
  }
  EXPECT_EQ(static_cast<std::int64_t>(ones), grid.popcount());
}

INSTANTIATE_TEST_SUITE_P(ChannelSweep, DeepSquishChannels,
                         ::testing::Values(1, 4, 9, 16, 25));
