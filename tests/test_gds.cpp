#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "io/gds.h"
#include "layout/squish.h"
#include "support/gds_reader.h"

namespace dio = diffpattern::io;
namespace dl = diffpattern::layout;
namespace dg = diffpattern::geometry;

namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

dl::SquishPattern two_shape_pattern() {
  dl::Layout l;
  l.width = 2048;
  l.height = 2048;
  l.rects.push_back(dg::Rect{128, 128, 512, 512});
  l.rects.push_back(dg::Rect{768, 768, 1024, 1536});
  l.rects.push_back(dg::Rect{1024, 768, 1280, 1024});  // L with the above.
  return dl::extract_squish(l);
}

}  // namespace

class GdsRealSweep : public ::testing::TestWithParam<double> {};

TEST_P(GdsRealSweep, EncodeDecodeRoundTrip) {
  const double value = GetParam();
  const double decoded = dio::decode_gds_real(dio::encode_gds_real(value));
  if (value == 0.0) {
    EXPECT_EQ(decoded, 0.0);
  } else {
    EXPECT_NEAR(decoded / value, 1.0, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Values, GdsRealSweep,
                         ::testing::Values(0.0, 1.0, -1.0, 1e-9, 1e-3, 0.5,
                                           2048.0, -3.25, 6.25e-10, 1e6));

TEST(GdsReal, KnownEncodings) {
  // 1.0 = 16^1 * (1/16): exponent 65, mantissa 2^52 pattern.
  EXPECT_EQ(dio::encode_gds_real(1.0), 0x4110000000000000ULL);
  // 2.0 = 16^1 * (2/16).
  EXPECT_EQ(dio::encode_gds_real(2.0), 0x4120000000000000ULL);
  // Sign bit for negatives.
  EXPECT_EQ(dio::encode_gds_real(-1.0), 0xC110000000000000ULL);
}

TEST(Gds, LibraryRoundTrip) {
  dio::GdsLibrary library;
  library.name = "TESTLIB";
  dio::GdsStructure structure;
  structure.name = "CELL_A";
  dio::GdsPolygon polygon;
  polygon.layer = 7;
  polygon.datatype = 2;
  polygon.ring = {{0, 0}, {100, 0}, {100, 50}, {0, 50}};
  structure.polygons.push_back(polygon);
  library.structures.push_back(structure);

  const auto path = temp_path("dp_test.gds");
  dio::write_gds(path, library);
  const auto loaded = dio::read_gds(path);
  EXPECT_EQ(loaded.name, "TESTLIB");
  ASSERT_EQ(loaded.structures.size(), 1U);
  EXPECT_EQ(loaded.structures[0].name, "CELL_A");
  ASSERT_EQ(loaded.structures[0].polygons.size(), 1U);
  const auto& p = loaded.structures[0].polygons[0];
  EXPECT_EQ(p.layer, 7);
  EXPECT_EQ(p.datatype, 2);
  EXPECT_EQ(p.ring, polygon.ring);
  std::remove(path.c_str());
}

TEST(Gds, PatternToStructurePolygonCount) {
  const auto pattern = two_shape_pattern();
  const auto structure = dio::pattern_to_structure(pattern, "P0", 3);
  // The two abutting rects merge into one polygon: 2 components total.
  EXPECT_EQ(structure.polygons.size(), 2U);
  for (const auto& polygon : structure.polygons) {
    EXPECT_EQ(polygon.layer, 3);
    EXPECT_GE(polygon.ring.size(), 4U);
    // Rectilinear ring: consecutive vertices share an axis.
    for (std::size_t i = 0; i < polygon.ring.size(); ++i) {
      const auto& a = polygon.ring[i];
      const auto& b = polygon.ring[(i + 1) % polygon.ring.size()];
      EXPECT_TRUE(a.x == b.x || a.y == b.y);
    }
  }
}

TEST(Gds, PatternGeometrySurvivesGdsRoundTrip) {
  // Writing a pattern to GDS and reading it back must preserve the exact nm
  // geometry: re-rasterize the boundaries into rects and compare squish
  // forms.
  const auto pattern = two_shape_pattern();
  const auto path = temp_path("dp_pattern.gds");
  dio::write_pattern_library_gds(path, {pattern});
  const auto library = dio::read_gds(path);
  ASSERT_EQ(library.structures.size(), 1U);
  EXPECT_EQ(library.structures[0].name, "PATTERN_0000");

  // The union of the boundary bounding traversals equals the original
  // shapes; verify via total polygon area (shoelace) == shape area in nm^2.
  std::int64_t shape_area = 0;
  for (std::int64_t r = 0; r < pattern.topology.rows(); ++r) {
    for (std::int64_t c = 0; c < pattern.topology.cols(); ++c) {
      if (pattern.topology.get_unchecked(r, c)) {
        shape_area += pattern.dx[static_cast<std::size_t>(c)] *
                      pattern.dy[static_cast<std::size_t>(r)];
      }
    }
  }
  double gds_area = 0.0;
  for (const auto& polygon : library.structures[0].polygons) {
    double twice = 0.0;
    const auto& ring = polygon.ring;
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const auto& a = ring[i];
      const auto& b = ring[(i + 1) % ring.size()];
      twice += static_cast<double>(a.x) * b.y - static_cast<double>(b.x) * a.y;
    }
    gds_area += std::abs(twice) / 2.0;
  }
  EXPECT_DOUBLE_EQ(gds_area, static_cast<double>(shape_area));
  std::remove(path.c_str());
}

TEST(Gds, MultiplePatternsMultipleStructures) {
  diffpattern::common::Rng rng(3);
  std::vector<dl::SquishPattern> patterns = {two_shape_pattern(),
                                             two_shape_pattern()};
  const auto path = temp_path("dp_multi.gds");
  dio::write_pattern_library_gds(path, patterns, 9);
  const auto library = dio::read_gds(path);
  ASSERT_EQ(library.structures.size(), 2U);
  EXPECT_EQ(library.structures[1].name, "PATTERN_0001");
  EXPECT_EQ(library.structures[0].polygons.front().layer, 9);
  std::remove(path.c_str());
}

TEST(Gds, ReaderRejectsGarbageAndTruncation) {
  const auto path = temp_path("dp_bad.gds");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a gds file at all";
  }
  EXPECT_THROW(dio::read_gds(path), std::exception);
  // Valid file truncated before ENDLIB.
  dio::GdsLibrary library;
  library.structures.push_back(dio::GdsStructure{"C", {}});
  dio::write_gds(path, library);
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  std::filesystem::resize_file(path, size - 6, ec);
  EXPECT_THROW(dio::read_gds(path), std::exception);
  std::remove(path.c_str());
  EXPECT_THROW(dio::read_gds("/nonexistent.gds"), std::runtime_error);
}

TEST(Gds, WriterRejectsDegeneratePolygon) {
  dio::GdsLibrary library;
  dio::GdsStructure structure;
  structure.name = "BAD";
  dio::GdsPolygon polygon;
  polygon.ring = {{0, 0}, {1, 0}};  // Two vertices only.
  structure.polygons.push_back(polygon);
  library.structures.push_back(structure);
  EXPECT_THROW(dio::write_gds(temp_path("dp_degenerate.gds"), library),
               std::invalid_argument);
}
