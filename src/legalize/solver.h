// Geometry-assignment solver for the nonlinear system of Eq. 14.
//
// The system is linear in the deltas except for the bilinear polygon-area
// terms, so the solver alternates:
//   Stage A (per axis)  — multiplicative repair of interval minimums
//                         followed by projection onto sum == tile span;
//                         converges geometrically for feasible systems.
//   Stage B (coupling)  — per-polygon area scaling of the supporting rows
//                         and columns, re-entering Stage A.
//   Stage C (extension) — Euclidean corner-gap repair when the rule set
//                         enables euclidean_corner_space.
// The float solution is then snapped to the integer nm grid, locally
// repaired, and finally VERIFIED against the DRC oracle; only DRC-clean
// geometry is ever returned (this is the paper's 100%-legality mechanism:
// unsolvable topologies are dropped, never emitted).
//
// Initialization implements both modes of Table II:
//   Solving-R — random positive deltas;
//   Solving-E — a pair of existing geometric vectors drawn from the
//               training library (empirically fewer repair rounds).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "drc/rules.h"
#include "geometry/grid.h"
#include "layout/squish.h"
#include "legalize/constraints.h"

namespace diffpattern::legalize {

enum class InitMode {
  solving_r,  // Random initialization.
  solving_e,  // Existing geometric vectors from the dataset.
};

/// Numerical backend for the float stage.
enum class SolverBackend {
  /// Special-purpose iterative repair + projection (fast; converges in a
  /// handful of rounds almost independently of the initial point).
  repair,
  /// Generic penalty-function gradient descent over all constraints — the
  /// closest analogue of the off-the-shelf nonlinear programming the paper
  /// uses, whose iteration count is strongly init-sensitive (this is the
  /// backend that reproduces Table II's Solving-R vs Solving-E gap).
  penalty_descent,
};

/// Pool of existing geometric vectors used by Solving-E.
struct DeltaLibrary {
  std::vector<std::vector<Coord>> dx_pool;
  std::vector<std::vector<Coord>> dy_pool;

  bool empty() const { return dx_pool.empty() || dy_pool.empty(); }
};

struct SolverConfig {
  InitMode init = InitMode::solving_e;
  SolverBackend backend = SolverBackend::repair;
  /// Outer rounds of the A/B(/C) alternation per attempt (repair backend).
  std::int64_t max_rounds = 60;
  /// Gradient steps per attempt (penalty_descent backend).
  std::int64_t max_gradient_steps = 4000;
  /// Full restarts with fresh jitter before giving up.
  std::int64_t max_attempts = 8;
  /// Relative multiplicative jitter on initial deltas; drives solution
  /// diversity for DiffPattern-L and Fig. 7.
  double jitter = 0.15;
};

struct SolveStats {
  std::int64_t rounds = 0;
  std::int64_t attempts = 0;
  double seconds = 0.0;
};

struct SolveResult {
  bool success = false;
  layout::SquishPattern pattern;  // Valid iff success.
  SolveStats stats;
  std::string failure_reason;
};

/// Assigns legal geometric vectors to `topology` under `rules`. The returned
/// pattern is guaranteed DRC-clean (verified, not assumed).
SolveResult legalize_topology(const geometry::BinaryGrid& topology,
                              const drc::DesignRules& rules, Coord tile_width,
                              Coord tile_height, const SolverConfig& config,
                              common::Rng& rng,
                              const DeltaLibrary* library = nullptr);

/// Draws up to `count` DISTINCT legal geometry assignments for one topology
/// (paper Sec. IV-C, Fig. 7 and DiffPattern-L). Patterns are deduplicated on
/// their delta vectors.
std::vector<layout::SquishPattern> legalize_topology_many(
    const geometry::BinaryGrid& topology, const drc::DesignRules& rules,
    Coord tile_width, Coord tile_height, const SolverConfig& config,
    std::int64_t count, common::Rng& rng,
    const DeltaLibrary* library = nullptr);

}  // namespace diffpattern::legalize
