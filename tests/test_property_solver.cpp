// Parameterized solver properties: whatever the solver emits must be
// DRC-clean under every rule preset, backend, and init mode.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "drc/checker.h"
#include "legalize/solver.h"

namespace dle = diffpattern::legalize;
namespace dd = diffpattern::drc;
namespace dg = diffpattern::geometry;
namespace dc = diffpattern::common;

namespace {

/// Random bowtie-free topology grid.
dg::BinaryGrid random_topology(dc::Rng& rng, std::int64_t side) {
  for (int guard = 0; guard < 200; ++guard) {
    dg::BinaryGrid g(side, side);
    const auto n = rng.uniform_int(1, 4);
    for (std::int64_t i = 0; i < n; ++i) {
      const auto r0 = rng.uniform_int(0, side - 2);
      const auto c0 = rng.uniform_int(0, side - 2);
      const auto r1 = rng.uniform_int(r0 + 1, side - 1);
      const auto c1 = rng.uniform_int(c0 + 1, side - 1);
      for (auto r = r0; r <= r1; ++r) {
        for (auto c = c0; c <= c1; ++c) {
          g.set(r, c, 1);
        }
      }
    }
    if (dle::prefilter_topology(g) == dle::PrefilterVerdict::ok) {
      return g;
    }
  }
  throw std::runtime_error("random_topology: generation stuck");
}

enum class RulePreset { standard, space, area, corner };

dd::DesignRules preset_rules(RulePreset preset) {
  switch (preset) {
    case RulePreset::standard: return dd::standard_rules();
    case RulePreset::space: return dd::larger_space_rules();
    case RulePreset::area: return dd::smaller_area_rules();
    case RulePreset::corner: {
      auto rules = dd::standard_rules();
      rules.euclidean_corner_space = true;
      return rules;
    }
  }
  return dd::standard_rules();
}

}  // namespace

using SolverCase = std::tuple<RulePreset, dle::SolverBackend, dle::InitMode>;

class SolverMatrix : public ::testing::TestWithParam<SolverCase> {};

TEST_P(SolverMatrix, EmittedPatternsAreAlwaysClean) {
  const auto [preset, backend, init] = GetParam();
  const auto rules = preset_rules(preset);
  dle::SolverConfig config;
  config.backend = backend;
  config.init = init;
  dle::DeltaLibrary library;
  library.dx_pool = {{128, 128, 128, 128, 128, 128, 128, 128,
                      128, 128, 128, 128, 128, 128, 128, 128}};
  library.dy_pool = library.dx_pool;

  dc::Rng rng(17);
  int solved = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const auto topology = random_topology(rng, 8);
    const auto result = dle::legalize_topology(
        topology, rules, 2048, 2048, config, rng,
        init == dle::InitMode::solving_e ? &library : nullptr);
    if (result.success) {
      ++solved;
      EXPECT_TRUE(dd::check_pattern(result.pattern, rules).clean())
          << "preset=" << static_cast<int>(preset)
          << " backend=" << static_cast<int>(backend)
          << " init=" << static_cast<int>(init) << "\n"
          << topology.to_ascii();
      EXPECT_EQ(result.pattern.topology, topology);
      EXPECT_EQ(result.pattern.width(), 2048);
      EXPECT_EQ(result.pattern.height(), 2048);
    }
  }
  EXPECT_GT(solved, 6) << "solver failed on too many feasible instances";
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, SolverMatrix,
    ::testing::Combine(
        ::testing::Values(RulePreset::standard, RulePreset::space,
                          RulePreset::area, RulePreset::corner),
        ::testing::Values(dle::SolverBackend::repair,
                          dle::SolverBackend::penalty_descent),
        ::testing::Values(dle::InitMode::solving_r,
                          dle::InitMode::solving_e)));

class SolverTileSweep : public ::testing::TestWithParam<dg::Coord> {};

TEST_P(SolverTileSweep, SumConstraintExactForEveryTileSize) {
  const auto tile = GetParam();
  dc::Rng rng(tile);
  dd::DesignRules rules;
  rules.space_min = tile / 32;
  rules.width_min = tile / 32;
  rules.area_min = (tile / 32) * (tile / 32);
  rules.area_max = tile * tile / 4;
  const auto topology = random_topology(rng, 6);
  const auto result = dle::legalize_topology(topology, rules, tile, tile,
                                             dle::SolverConfig{}, rng);
  if (result.success) {
    EXPECT_EQ(result.pattern.width(), tile);
    EXPECT_EQ(result.pattern.height(), tile);
    EXPECT_TRUE(dd::check_pattern(result.pattern, rules).clean());
  }
}

INSTANTIATE_TEST_SUITE_P(TileSizes, SolverTileSweep,
                         ::testing::Values(512, 1024, 2048, 4096, 3000));

TEST(SolverDeterminism, SameSeedSameSolution) {
  dc::Rng topo_rng(5);
  const auto topology = random_topology(topo_rng, 8);
  const auto rules = dd::standard_rules();
  dc::Rng rng_a(77);
  dc::Rng rng_b(77);
  const auto a = dle::legalize_topology(topology, rules, 2048, 2048,
                                        dle::SolverConfig{}, rng_a);
  const auto b = dle::legalize_topology(topology, rules, 2048, 2048,
                                        dle::SolverConfig{}, rng_b);
  ASSERT_EQ(a.success, b.success);
  if (a.success) {
    EXPECT_EQ(a.pattern.dx, b.pattern.dx);
    EXPECT_EQ(a.pattern.dy, b.pattern.dy);
  }
}

TEST(SolverStress, ManyTopologiesNeverEmitDirtyPatterns) {
  // The Table I guarantee under stress: 60 random topologies, three rule
  // presets, no dirty pattern may ever escape.
  dc::Rng rng(99);
  for (const auto preset :
       {RulePreset::standard, RulePreset::space, RulePreset::area}) {
    const auto rules = preset_rules(preset);
    for (int trial = 0; trial < 20; ++trial) {
      const auto topology = random_topology(rng, 10);
      const auto result = dle::legalize_topology(
          topology, rules, 2048, 2048, dle::SolverConfig{}, rng);
      if (result.success) {
        ASSERT_TRUE(dd::check_pattern(result.pattern, rules).clean());
      } else {
        EXPECT_FALSE(result.failure_reason.empty());
      }
    }
  }
}
