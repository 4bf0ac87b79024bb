#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "geometry/components.h"
#include "geometry/grid.h"
#include "geometry/types.h"

namespace dg = diffpattern::geometry;
using dg::BinaryGrid;
using dg::Point;
using dg::Rect;

namespace {

BinaryGrid grid_from_ascii(const std::vector<std::string>& rows_top_first) {
  const auto rows = static_cast<std::int64_t>(rows_top_first.size());
  const auto cols = static_cast<std::int64_t>(rows_top_first.front().size());
  BinaryGrid g(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    const auto& line = rows_top_first[static_cast<std::size_t>(rows - 1 - r)];
    for (std::int64_t c = 0; c < cols; ++c) {
      g.set(r, c, line[static_cast<std::size_t>(c)] == '#' ? 1 : 0);
    }
  }
  return g;
}

}  // namespace

TEST(Rect, BasicPredicates) {
  Rect a{0, 0, 10, 5};
  EXPECT_EQ(a.width(), 10);
  EXPECT_EQ(a.height(), 5);
  EXPECT_EQ(a.area(), 50);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE((Rect{0, 0, 0, 5}).valid());
}

TEST(Rect, OverlapsExclusiveOfEdges) {
  Rect a{0, 0, 10, 10};
  EXPECT_TRUE(a.overlaps(Rect{5, 5, 15, 15}));
  EXPECT_FALSE(a.overlaps(Rect{10, 0, 20, 10}));  // Shared edge only.
  EXPECT_TRUE(a.touches_or_overlaps(Rect{10, 0, 20, 10}));
  EXPECT_FALSE(a.touches_or_overlaps(Rect{11, 0, 20, 10}));
}

TEST(Rect, InflatedGrowsAllSides) {
  Rect a{5, 5, 10, 10};
  Rect b = a.inflated(2);
  EXPECT_EQ(b, (Rect{3, 3, 12, 12}));
}

TEST(BinaryGrid, SetGetAndBounds) {
  BinaryGrid g(3, 4);
  g.set(2, 3, 1);
  EXPECT_EQ(g.get_unchecked(2, 3), 1);
  EXPECT_EQ(g.get_unchecked(0, 0), 0);
  EXPECT_EQ(g.popcount(), 1);
  EXPECT_THROW(g.set(3, 0, 1), std::invalid_argument);
  EXPECT_THROW(g.set(0, 0, 2), std::invalid_argument);
}

TEST(BinaryGrid, RejectsNegativeAndOverflowingDimensions) {
  // Checked before the cell vector is sized: 2^32 x 2^32 must not wrap to
  // an empty grid whose set(0, 0) writes through it.
  constexpr std::int64_t kHuge = std::int64_t{1} << 32;
  EXPECT_THROW(BinaryGrid(kHuge, kHuge), std::invalid_argument);
  EXPECT_THROW(BinaryGrid(std::numeric_limits<std::int64_t>::max(), 2),
               std::invalid_argument);
  EXPECT_THROW(BinaryGrid(-1, 5), std::invalid_argument);
  EXPECT_THROW(BinaryGrid(5, -1), std::invalid_argument);
  EXPECT_EQ(BinaryGrid(0, 7).cell_count(), 0);
}

TEST(BinaryGrid, BowtieDetection) {
  EXPECT_TRUE(dg::has_bowtie(grid_from_ascii({"#.", ".#"})));
  EXPECT_TRUE(dg::has_bowtie(grid_from_ascii({".#", "#."})));
  EXPECT_FALSE(dg::has_bowtie(grid_from_ascii({"##", ".#"})));
  EXPECT_FALSE(dg::has_bowtie(grid_from_ascii({"##", "##"})));
  EXPECT_FALSE(dg::has_bowtie(grid_from_ascii({"..", ".."})));
}

TEST(BinaryGrid, MirrorAndTranspose) {
  BinaryGrid g = grid_from_ascii({"#..", "##."});
  BinaryGrid m = dg::mirrored_horizontal(g);
  EXPECT_EQ(m, grid_from_ascii({"..#", ".##"}));
  BinaryGrid t = dg::transposed(g);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  // g(r=1, c=0) is '#' (top row, first char) -> t(0, 1).
  EXPECT_EQ(t.get_unchecked(0, 1), 1);
}

TEST(Components, LabelsFourConnectivity) {
  // Two diagonal cells are distinct components.
  BinaryGrid g = grid_from_ascii({"#.", ".#"});
  auto analysis = dg::analyze_components(g);
  EXPECT_EQ(analysis.components.size(), 2U);
}

TEST(Components, SingleComponentWithBend) {
  BinaryGrid g = grid_from_ascii({"#..",
                                  "#..",
                                  "###"});
  auto analysis = dg::analyze_components(g);
  ASSERT_EQ(analysis.components.size(), 1U);
  EXPECT_EQ(analysis.components[0].cells.size(), 5U);
  EXPECT_EQ(analysis.components[0].min_row, 0);
  EXPECT_EQ(analysis.components[0].max_row, 2);
}

TEST(Components, EmptyGridHasNoComponents) {
  BinaryGrid g(4, 4);
  auto analysis = dg::analyze_components(g);
  EXPECT_TRUE(analysis.components.empty());
  EXPECT_EQ(analysis.label_at(1, 1), -1);
}

TEST(Components, LabelsMatchCells) {
  BinaryGrid g = grid_from_ascii({"##.#",
                                  "...#",
                                  "##.#"});
  auto analysis = dg::analyze_components(g);
  ASSERT_EQ(analysis.components.size(), 3U);
  for (const auto& comp : analysis.components) {
    for (const auto& cell : comp.cells) {
      EXPECT_EQ(analysis.label_at(cell.row, cell.col), comp.id);
    }
  }
}

TEST(Boundary, UnitSquare) {
  BinaryGrid g = grid_from_ascii({"#"});
  auto analysis = dg::analyze_components(g);
  auto loop = dg::trace_outer_boundary(analysis, 0);
  ASSERT_EQ(loop.size(), 4U);
  EXPECT_EQ(loop[0], (Point{0, 0}));
  // Counter-clockwise: (0,0) -> (1,0) -> (1,1) -> (0,1).
  EXPECT_EQ(loop[1], (Point{1, 0}));
  EXPECT_EQ(loop[2], (Point{1, 1}));
  EXPECT_EQ(loop[3], (Point{0, 1}));
}

TEST(Boundary, RectangleHasFourVertices) {
  BinaryGrid g = grid_from_ascii({"###", "###"});
  auto analysis = dg::analyze_components(g);
  auto loop = dg::trace_outer_boundary(analysis, 0);
  ASSERT_EQ(loop.size(), 4U);
  EXPECT_EQ(loop[1], (Point{3, 0}));
  EXPECT_EQ(loop[2], (Point{3, 2}));
}

TEST(Boundary, LShapeHasSixVertices) {
  BinaryGrid g = grid_from_ascii({"#..",
                                  "###"});
  auto analysis = dg::analyze_components(g);
  auto loop = dg::trace_outer_boundary(analysis, 0);
  EXPECT_EQ(loop.size(), 6U);
}

TEST(Boundary, ShoelaceAreaMatchesCellCount) {
  BinaryGrid g = grid_from_ascii({"##..",
                                  "###.",
                                  "####"});
  auto analysis = dg::analyze_components(g);
  ASSERT_EQ(analysis.components.size(), 1U);
  auto loop = dg::trace_outer_boundary(analysis, 0);
  // Shoelace formula on the CCW loop must equal the number of cells.
  double area2 = 0.0;
  for (std::size_t i = 0; i < loop.size(); ++i) {
    const auto& p = loop[i];
    const auto& q = loop[(i + 1) % loop.size()];
    area2 += static_cast<double>(p.x) * q.y - static_cast<double>(q.x) * p.y;
  }
  EXPECT_DOUBLE_EQ(area2 / 2.0, 9.0);
}
