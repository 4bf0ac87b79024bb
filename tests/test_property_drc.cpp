// Metamorphic / differential DRC properties: the checker's verdict must be
// invariant under representation changes that preserve geometry, and the
// synthetic data generator must never emit a dirty tile under any
// configuration.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/datagen.h"
#include "drc/checker.h"
#include "drc_test_util.h"
#include "layout/squish.h"

namespace dd = diffpattern::drc;
using dd::test::count_kind;
namespace dl = diffpattern::layout;
namespace dg = diffpattern::geometry;
namespace dc = diffpattern::common;
namespace dgen = diffpattern::datagen;

namespace {

dl::Layout random_layout(dc::Rng& rng, int rects) {
  dl::Layout l;
  l.width = 1024;
  l.height = 1024;
  for (int i = 0; i < rects; ++i) {
    const auto w = rng.uniform_int(16, 300);
    const auto h = rng.uniform_int(16, 300);
    const auto x0 = rng.uniform_int(0, 1024 - w);
    const auto y0 = rng.uniform_int(0, 1024 - h);
    l.rects.push_back(dg::Rect{x0, y0, x0 + w, y0 + h});
  }
  return l;
}

dd::DesignRules moderate_rules() {
  dd::DesignRules rules;
  rules.space_min = 40;
  rules.width_min = 40;
  rules.area_min = 1600;
  rules.area_max = 300000;
  return rules;
}

}  // namespace

class DrcMetamorphic : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DrcMetamorphic, VerdictInvariantUnderPadding) {
  // pad_to inserts redundant scan lines without changing geometry; the DRC
  // verdict (clean or dirty, and the violation kinds) must not change.
  dc::Rng rng(GetParam());
  const auto pattern = dl::extract_squish(random_layout(rng, 4));
  if (pattern.topology.rows() > 20 || pattern.topology.cols() > 20) {
    GTEST_SKIP();
  }
  const auto rules = moderate_rules();
  const auto base = dd::check_pattern(pattern, rules);
  const auto padded = dl::pad_to(pattern, 24, 24);
  const auto after = dd::check_pattern(padded, rules);
  EXPECT_EQ(base.clean(), after.clean()) << "padding changed the verdict";
  for (const auto kind :
       {dd::ViolationKind::width, dd::ViolationKind::space,
        dd::ViolationKind::area_min, dd::ViolationKind::area_max,
        dd::ViolationKind::corner_contact}) {
    EXPECT_EQ(count_kind(base, kind) > 0, count_kind(after, kind) > 0)
        << "kind " << static_cast<int>(kind);
  }
}

TEST_P(DrcMetamorphic, VerdictInvariantUnderRestoreRoundTrip) {
  dc::Rng rng(GetParam() + 1000);
  const auto layout = random_layout(rng, 5);
  const auto rules = moderate_rules();
  const auto direct = dd::check_layout(layout, rules);
  const auto round_trip =
      dd::check_layout(dl::restore_layout(dl::extract_squish(layout)), rules);
  EXPECT_EQ(direct.clean(), round_trip.clean());
  EXPECT_EQ(direct.violations.size(), round_trip.violations.size());
}

TEST_P(DrcMetamorphic, TighteningRulesNeverRemovesViolations) {
  // Monotonicity: raising space_min/width_min or shrinking the area window
  // can only add violations.
  dc::Rng rng(GetParam() + 2000);
  const auto layout = random_layout(rng, 4);
  auto loose = moderate_rules();
  auto tight = loose;
  tight.space_min *= 2;
  tight.width_min *= 2;
  tight.area_min *= 2;
  tight.area_max /= 2;
  const auto loose_report = dd::check_layout(layout, loose);
  const auto tight_report = dd::check_layout(layout, tight);
  EXPECT_GE(tight_report.violations.size(), loose_report.violations.size());
  if (!loose_report.clean()) {
    EXPECT_FALSE(tight_report.clean());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DrcMetamorphic,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

struct DatagenCase {
  std::int64_t quantum;
  std::int64_t min_shapes;
  std::int64_t max_shapes;
  double extend;
};

class DatagenMatrix : public ::testing::TestWithParam<DatagenCase> {};

TEST_P(DatagenMatrix, TilesAlwaysCleanUnderEveryConfig) {
  const auto param = GetParam();
  dgen::DatagenConfig cfg;
  cfg.quantum = param.quantum;
  cfg.min_shapes = param.min_shapes;
  cfg.max_shapes = param.max_shapes;
  cfg.extend_probability = param.extend;
  dc::Rng rng(param.quantum * 1000 + param.max_shapes);
  for (int i = 0; i < 4; ++i) {
    const auto tile = dgen::generate_tile(cfg, rng);
    EXPECT_TRUE(dd::check_layout(tile, cfg.rules).clean());
    // And under the Euclidean-corner extension too (construction uses
    // inflated clearance, which implies it).
    auto extended = cfg.rules;
    extended.euclidean_corner_space = true;
    EXPECT_TRUE(dd::check_layout(tile, extended).clean());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DatagenMatrix,
    ::testing::Values(DatagenCase{64, 2, 4, 0.0},
                      DatagenCase{64, 4, 9, 0.5},
                      DatagenCase{128, 3, 7, 0.4},
                      DatagenCase{32, 2, 6, 0.8},
                      DatagenCase{256, 1, 3, 0.0}));

TEST(DrcDifferential, RunChecksAgreeWithBruteForceOnSmallGrids) {
  // Brute-force oracle: enumerate every horizontal/vertical run on a small
  // pattern in nm space and compare counts with the checker.
  dc::Rng rng(55);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pattern = dl::extract_squish(random_layout(rng, 3));
    const auto rules = moderate_rules();
    const auto report = dd::check_pattern(pattern, rules);

    std::int64_t expected_width = 0;
    std::int64_t expected_space = 0;
    const auto& topo = pattern.topology;
    const auto scan = [&](bool rows) {
      const auto lines = rows ? topo.rows() : topo.cols();
      const auto length = rows ? topo.cols() : topo.rows();
      const auto& deltas = rows ? pattern.dx : pattern.dy;
      for (std::int64_t line = 0; line < lines; ++line) {
        std::int64_t i = 0;
        bool seen = false;
        while (i < length) {
          const auto v = rows ? topo.get_unchecked(line, i)
                              : topo.get_unchecked(i, line);
          std::int64_t j = i;
          std::int64_t span = 0;
          while (j < length) {
            const auto w = rows ? topo.get_unchecked(line, j)
                                : topo.get_unchecked(j, line);
            if (w != v) break;
            span += deltas[static_cast<std::size_t>(j)];
            ++j;
          }
          if (v == 1) {
            expected_width += span < rules.width_min;
            seen = true;
          } else if (seen && j < length) {
            expected_space += span < rules.space_min;
          }
          i = j;
        }
      }
    };
    scan(true);
    scan(false);
    EXPECT_EQ(count_kind(report, dd::ViolationKind::width), expected_width);
    EXPECT_EQ(count_kind(report, dd::ViolationKind::space), expected_space);
  }
}
