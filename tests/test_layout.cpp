#include <gtest/gtest.h>

#include "common/rng.h"
#include "layout/deep_squish.h"
#include "layout/squish.h"

namespace dl = diffpattern::layout;
namespace dg = diffpattern::geometry;
using dg::BinaryGrid;
using dg::Rect;
using dl::Layout;
using dl::SquishPattern;

namespace {

Layout two_bar_layout() {
  // Two horizontal bars in a 100x100 tile.
  Layout l;
  l.width = 100;
  l.height = 100;
  l.rects.push_back(Rect{10, 10, 90, 30});
  l.rects.push_back(Rect{10, 60, 50, 80});
  return l;
}

Layout random_layout(diffpattern::common::Rng& rng, int n_rects) {
  Layout l;
  l.width = 256;
  l.height = 256;
  for (int i = 0; i < n_rects; ++i) {
    const auto x0 = rng.uniform_int(0, 200);
    const auto y0 = rng.uniform_int(0, 200);
    const auto w = rng.uniform_int(8, 56);
    const auto h = rng.uniform_int(8, 56);
    l.rects.push_back(Rect{x0, y0, x0 + w, y0 + h});
  }
  return l;
}

}  // namespace

TEST(Squish, ExtractKnownTopology) {
  SquishPattern p = dl::extract_squish(two_bar_layout());
  // Scan lines: x = {0,10,50,90,100}, y = {0,10,30,60,80,100}.
  EXPECT_EQ(p.topology.cols(), 4);
  EXPECT_EQ(p.topology.rows(), 5);
  EXPECT_EQ(p.dx, (std::vector<dg::Coord>{10, 40, 40, 10}));
  EXPECT_EQ(p.dy, (std::vector<dg::Coord>{10, 20, 30, 20, 20}));
  // Bottom bar spans columns 1..2 on row 1; top bar column 1 on row 3.
  EXPECT_EQ(p.topology.get_unchecked(1, 1), 1);
  EXPECT_EQ(p.topology.get_unchecked(1, 2), 1);
  EXPECT_EQ(p.topology.get_unchecked(3, 1), 1);
  EXPECT_EQ(p.topology.get_unchecked(3, 2), 0);
  EXPECT_EQ(p.topology.get_unchecked(0, 0), 0);
}

TEST(Squish, RoundTripIsLossless) {
  diffpattern::common::Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    Layout original = random_layout(rng, 6);
    SquishPattern p = dl::extract_squish(original);
    Layout restored = dl::restore_layout(p);
    SquishPattern p2 = dl::extract_squish(restored);
    EXPECT_TRUE(dl::same_layout(p, p2)) << "trial " << trial;
  }
}

TEST(Squish, OverlappingRectsMerge) {
  Layout l;
  l.width = 100;
  l.height = 100;
  l.rects.push_back(Rect{10, 10, 50, 50});
  l.rects.push_back(Rect{30, 30, 70, 70});
  SquishPattern p = dl::extract_squish(l);
  Layout restored = dl::restore_layout(p);
  // The union is an 8-vertex rectilinear polygon; re-extraction must agree.
  EXPECT_TRUE(dl::same_layout(p, dl::extract_squish(restored)));
}

TEST(Squish, ValidateRejectsBadPatterns) {
  SquishPattern p;
  p.topology = BinaryGrid(2, 2);
  p.dx = {10, 10};
  p.dy = {10};  // Wrong size.
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.dy = {10, 0};  // Non-positive delta.
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.dy = {10, 10};
  EXPECT_NO_THROW(p.validate());
}

TEST(Squish, ExtractRejectsOutOfTileRect) {
  Layout l;
  l.width = 50;
  l.height = 50;
  l.rects.push_back(Rect{40, 40, 60, 45});
  EXPECT_THROW(dl::extract_squish(l), std::invalid_argument);
}

TEST(Squish, CanonicalizeMergesDuplicateLines) {
  SquishPattern p = dl::extract_squish(two_bar_layout());
  SquishPattern padded = dl::pad_to(p, 8, 8);
  EXPECT_EQ(padded.topology.rows(), 8);
  EXPECT_EQ(padded.topology.cols(), 8);
  SquishPattern canon = dl::canonicalize(padded);
  EXPECT_EQ(canon.topology.rows(), p.topology.rows());
  EXPECT_EQ(canon.topology.cols(), p.topology.cols());
  EXPECT_EQ(canon.dx, p.dx);
  EXPECT_EQ(canon.dy, p.dy);
}

TEST(Squish, PadPreservesGeometry) {
  diffpattern::common::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    Layout original = random_layout(rng, 4);
    SquishPattern p = dl::extract_squish(original);
    if (p.topology.rows() > 16 || p.topology.cols() > 16) {
      continue;
    }
    SquishPattern padded = dl::pad_to(p, 16, 16);
    EXPECT_TRUE(dl::same_layout(p, padded)) << "trial " << trial;
    EXPECT_EQ(padded.width(), p.width());
    EXPECT_EQ(padded.height(), p.height());
  }
}

TEST(Squish, PadRejectsOversizedPattern) {
  SquishPattern p = dl::extract_squish(two_bar_layout());
  EXPECT_THROW(dl::pad_to(p, 2, 2), std::invalid_argument);
}

TEST(DeepSquish, FoldUnfoldRoundTrip) {
  diffpattern::common::Rng rng(3);
  dl::DeepSquishConfig cfg;
  cfg.channels = 4;
  BinaryGrid g(8, 8);
  for (std::int64_t r = 0; r < 8; ++r) {
    for (std::int64_t c = 0; c < 8; ++c) {
      g.set(r, c, rng.bernoulli(0.4) ? 1 : 0);
    }
  }
  auto folded = dl::fold_topology(g, cfg);
  EXPECT_EQ(folded.shape(), (diffpattern::tensor::Shape{4, 4, 4}));
  BinaryGrid back = dl::unfold_topology(folded, cfg);
  EXPECT_EQ(back, g);
}

TEST(DeepSquish, FoldPlacementConvention) {
  dl::DeepSquishConfig cfg;
  cfg.channels = 4;
  BinaryGrid g(4, 4);
  g.set(0, 0, 1);  // Patch (0,0), cell (0,0) -> channel 0.
  g.set(2, 3, 1);  // Patch (1,1), cell (0,1) -> channel 1.
  auto folded = dl::fold_topology(g, cfg);
  EXPECT_FLOAT_EQ(folded.at({0, 0, 0}), 1.0F);
  EXPECT_FLOAT_EQ(folded.at({1, 1, 1}), 1.0F);
  EXPECT_FLOAT_EQ(folded.at({2, 0, 0}), 0.0F);
}

TEST(DeepSquish, ChannelsMustBePerfectSquare) {
  dl::DeepSquishConfig cfg;
  cfg.channels = 3;
  BinaryGrid g(6, 6);
  EXPECT_THROW(dl::fold_topology(g, cfg), std::invalid_argument);
}

TEST(DeepSquish, FoldBatchStacksSamples) {
  dl::DeepSquishConfig cfg;
  cfg.channels = 4;
  BinaryGrid a(4, 4);
  a.set(0, 0, 1);
  BinaryGrid b(4, 4);
  b.set(3, 3, 1);
  auto batch = dl::fold_batch({a, b}, cfg);
  EXPECT_EQ(batch.shape(), (diffpattern::tensor::Shape{2, 4, 2, 2}));
  EXPECT_FLOAT_EQ(batch.at({0, 0, 0, 0}), 1.0F);
  // b's bit: row 3, col 3 -> patch (1,1), cell (1,1) -> channel 3.
  EXPECT_FLOAT_EQ(batch.at({1, 3, 1, 1}), 1.0F);
}

TEST(DeepSquish, PatchSideIsSqrtOfChannels) {
  for (std::int64_t c : {1, 4, 9, 16}) {
    dl::DeepSquishConfig cfg;
    cfg.channels = c;
    EXPECT_EQ(cfg.patch_side() * cfg.patch_side(), c);
  }
}
