#include "legalize/solver.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "common/contracts.h"
#include "common/timer.h"
#include "drc/checker.h"
#include "geometry/components.h"

namespace diffpattern::legalize {

using geometry::BinaryGrid;

namespace {

// ---- float-stage helpers ---------------------------------------------------

/// Linearly resamples `source` to `count` entries (used when a library
/// vector's length differs from the topology's grid size).
std::vector<double> resample(const std::vector<Coord>& source,
                             std::int64_t count) {
  std::vector<double> out(static_cast<std::size_t>(count));
  const auto n = static_cast<std::int64_t>(source.size());
  for (std::int64_t i = 0; i < count; ++i) {
    const auto src = std::min(n - 1, i * n / count);
    out[static_cast<std::size_t>(i)] =
        static_cast<double>(source[static_cast<std::size_t>(src)]);
  }
  return out;
}

std::vector<double> initial_deltas(const ConstraintSystem& system,
                                   const SolverConfig& config,
                                   common::Rng& rng,
                                   const std::vector<std::vector<Coord>>* pool,
                                   std::int64_t count, Coord total) {
  std::vector<double> d(static_cast<std::size_t>(count));
  if (config.init == InitMode::solving_e && pool != nullptr && !pool->empty()) {
    // Existing geometric vectors are jointly consistent (they sum to the
    // tile span and carry realistic run statistics), which is why this
    // initialization converges in fewer iterations (paper Sec. III-D).
    const auto& pick = (*pool)[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool->size()) - 1))];
    d = resample(pick, count);
  } else {
    // Solving-R: independent per-variable draws over the variable's range,
    // with no joint knowledge of the sum constraint — the generic start
    // point an off-the-shelf nonlinear solver would use.
    for (auto& v : d) {
      v = rng.uniform(static_cast<double>(system.delta_min),
                      static_cast<double>(total) / 4.0);
    }
  }
  // Multiplicative jitter for solution diversity.
  for (auto& v : d) {
    v = std::max<double>(static_cast<double>(system.delta_min),
                         v * (1.0 + config.jitter * rng.uniform(-1.0, 1.0)));
  }
  return d;
}

/// Stage A: repairs interval minimums and projects onto sum == total.
/// Returns the number of inner rounds used (for the Table II statistics).
std::int64_t repair_axis(std::vector<double>& d,
                         const std::vector<IntervalConstraint>& intervals,
                         Coord total, Coord delta_min,
                         std::int64_t max_rounds) {
  const auto n = static_cast<std::int64_t>(d.size());
  std::int64_t round = 0;
  for (; round < max_rounds; ++round) {
    bool dirty = false;
    for (auto& v : d) {
      if (v < static_cast<double>(delta_min)) {
        v = static_cast<double>(delta_min);
        dirty = true;
      }
    }
    for (const auto& c : intervals) {
      double s = 0.0;
      for (std::int64_t i = c.lo; i <= c.hi; ++i) {
        s += d[static_cast<std::size_t>(i)];
      }
      if (s < static_cast<double>(c.min_span)) {
        const double f = static_cast<double>(c.min_span) / s * 1.0001;
        for (std::int64_t i = c.lo; i <= c.hi; ++i) {
          d[static_cast<std::size_t>(i)] *= f;
        }
        dirty = true;
      }
    }
    double sum = 0.0;
    for (const auto v : d) {
      sum += v;
    }
    const double norm = static_cast<double>(total) / sum;
    if (std::abs(norm - 1.0) > 1e-9) {
      for (auto& v : d) {
        v *= norm;
      }
      dirty = dirty || std::abs(norm - 1.0) > 1e-6;
    }
    if (!dirty) {
      break;
    }
    (void)n;
  }
  return round + 1;
}

bool axis_feasible_float(const std::vector<double>& d,
                         const std::vector<IntervalConstraint>& intervals,
                         Coord delta_min) {
  for (const auto v : d) {
    if (v < static_cast<double>(delta_min) * (1.0 - 1e-6)) {
      return false;
    }
  }
  for (const auto& c : intervals) {
    double s = 0.0;
    for (std::int64_t i = c.lo; i <= c.hi; ++i) {
      s += d[static_cast<std::size_t>(i)];
    }
    if (s < static_cast<double>(c.min_span) * (1.0 - 1e-6)) {
      return false;
    }
  }
  return true;
}

double polygon_area(const PolygonConstraint& polygon,
                    const std::vector<double>& dx,
                    const std::vector<double>& dy) {
  double area = 0.0;
  for (const auto& cell : polygon.cells) {
    area += dx[static_cast<std::size_t>(cell.col)] *
            dy[static_cast<std::size_t>(cell.row)];
  }
  return area;
}

/// Stage B: one pass of per-polygon area scaling. Returns true if any
/// polygon needed adjustment.
bool area_pass(const ConstraintSystem& system, std::vector<double>& dx,
               std::vector<double>& dy) {
  bool adjusted = false;
  for (const auto& polygon : system.polygons) {
    const double area = polygon_area(polygon, dx, dy);
    double target = area;
    if (area < static_cast<double>(polygon.area_min)) {
      target = static_cast<double>(polygon.area_min) * 1.02;
    } else if (polygon.area_max > 0 &&
               area > static_cast<double>(polygon.area_max)) {
      target = static_cast<double>(polygon.area_max) * 0.98;
    } else {
      continue;
    }
    const double f = std::sqrt(target / area);
    std::set<std::int64_t> cols;
    std::set<std::int64_t> rows;
    for (const auto& cell : polygon.cells) {
      cols.insert(cell.col);
      rows.insert(cell.row);
    }
    for (const auto c : cols) {
      dx[static_cast<std::size_t>(c)] *= f;
    }
    for (const auto r : rows) {
      dy[static_cast<std::size_t>(r)] *= f;
    }
    adjusted = true;
  }
  return adjusted;
}

bool areas_feasible_float(const ConstraintSystem& system,
                          const std::vector<double>& dx,
                          const std::vector<double>& dy) {
  for (const auto& polygon : system.polygons) {
    const double area = polygon_area(polygon, dx, dy);
    if (area < static_cast<double>(polygon.area_min) * (1.0 - 1e-4)) {
      return false;
    }
    if (polygon.area_max > 0 &&
        area > static_cast<double>(polygon.area_max) * (1.0 + 1e-4)) {
      return false;
    }
  }
  return true;
}

/// Stage C: grows the gaps of Euclidean corner-space violations (extension
/// rule). Returns true if anything changed.
bool corner_pass(const BinaryGrid& topology,
                 const geometry::ComponentAnalysis& analysis,
                 const drc::DesignRules& rules, std::vector<double>& dx,
                 std::vector<double>& dy) {
  if (!rules.euclidean_corner_space || analysis.components.size() < 2) {
    return false;
  }
  (void)topology;
  // Prefix sums in float space.
  std::vector<double> xs(dx.size() + 1, 0.0);
  for (std::size_t i = 0; i < dx.size(); ++i) {
    xs[i + 1] = xs[i] + dx[i];
  }
  std::vector<double> ys(dy.size() + 1, 0.0);
  for (std::size_t i = 0; i < dy.size(); ++i) {
    ys[i + 1] = ys[i] + dy[i];
  }
  bool adjusted = false;
  const double need = static_cast<double>(rules.space_min);
  for (std::size_t a = 0; a < analysis.components.size(); ++a) {
    for (std::size_t b = a + 1; b < analysis.components.size(); ++b) {
      for (const auto& ca : analysis.components[a].cells) {
        for (const auto& cb : analysis.components[b].cells) {
          const auto col_lo = std::min(ca.col, cb.col);
          const auto col_hi = std::max(ca.col, cb.col);
          const auto row_lo = std::min(ca.row, cb.row);
          const auto row_hi = std::max(ca.row, cb.row);
          if (col_hi - col_lo < 2 || row_hi - row_lo < 2) {
            continue;  // No diagonal gap (adjacent or axis-aligned).
          }
          const double gx = xs[static_cast<std::size_t>(col_hi)] -
                            xs[static_cast<std::size_t>(col_lo + 1)];
          const double gy = ys[static_cast<std::size_t>(row_hi)] -
                            ys[static_cast<std::size_t>(row_lo + 1)];
          const double dist = std::hypot(gx, gy);
          if (dist >= need || dist <= 0.0) {
            continue;
          }
          const double f = need / dist * 1.02;
          for (std::int64_t ci = col_lo + 1; ci < col_hi; ++ci) {
            dx[static_cast<std::size_t>(ci)] *= f;
          }
          for (std::int64_t ri = row_lo + 1; ri < row_hi; ++ri) {
            dy[static_cast<std::size_t>(ri)] *= f;
          }
          adjusted = true;
        }
      }
    }
  }
  return adjusted;
}

/// Generic penalty-function gradient descent over all Eq. 14 constraints —
/// the paper-style NLP analogue. Squared-hinge penalties with trust-region
/// clamped steps; returns the number of gradient steps taken. Convergence
/// (and thus wall time) depends strongly on the distance of the initial
/// point from the feasible set, which is what separates Solving-R from
/// Solving-E in Table II.
std::int64_t penalty_descent(const ConstraintSystem& system,
                             std::vector<double>& dx, std::vector<double>& dy,
                             std::int64_t max_steps) {
  const auto nx = static_cast<std::int64_t>(dx.size());
  const auto ny = static_cast<std::int64_t>(dy.size());
  const double avg_x =
      static_cast<double>(system.tile_width) / static_cast<double>(nx);
  const double avg_y =
      static_cast<double>(system.tile_height) / static_cast<double>(ny);
  // Term weights bring the area penalty (nm^4 scale) onto the interval
  // penalty scale (nm^2).
  const double w_area = 1.0 / (avg_x * avg_y);
  const double lr = 0.5 / static_cast<double>(std::max(nx, ny));
  const double max_step_x = 0.10 * avg_x;
  const double max_step_y = 0.10 * avg_y;

  std::vector<double> gx(dx.size());
  std::vector<double> gy(dy.size());
  std::int64_t step = 0;
  for (; step < max_steps; ++step) {
    if (axis_feasible_float(dx, system.x_intervals, system.delta_min) &&
        axis_feasible_float(dy, system.y_intervals, system.delta_min) &&
        areas_feasible_float(system, dx, dy) &&
        std::abs(std::accumulate(dx.begin(), dx.end(), 0.0) -
                 static_cast<double>(system.tile_width)) < 0.5 &&
        std::abs(std::accumulate(dy.begin(), dy.end(), 0.0) -
                 static_cast<double>(system.tile_height)) < 0.5) {
      break;
    }
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);

    const auto axis_gradient = [&](std::vector<double>& g,
                                   const std::vector<double>& d,
                                   const std::vector<IntervalConstraint>& cs,
                                   Coord total, Coord delta_min) {
      double sum = 0.0;
      for (const auto v : d) {
        sum += v;
      }
      const double sum_err = sum - static_cast<double>(total);
      for (std::size_t j = 0; j < d.size(); ++j) {
        g[j] += 2.0 * sum_err;
        const double hinge = static_cast<double>(delta_min) - d[j];
        if (hinge > 0.0) {
          g[j] -= 2.0 * hinge;
        }
      }
      for (const auto& c : cs) {
        double s = 0.0;
        for (std::int64_t i = c.lo; i <= c.hi; ++i) {
          s += d[static_cast<std::size_t>(i)];
        }
        const double hinge = static_cast<double>(c.min_span) - s;
        if (hinge > 0.0) {
          for (std::int64_t i = c.lo; i <= c.hi; ++i) {
            g[static_cast<std::size_t>(i)] -= 2.0 * hinge;
          }
        }
      }
    };
    axis_gradient(gx, dx, system.x_intervals, system.tile_width,
                  system.delta_min);
    axis_gradient(gy, dy, system.y_intervals, system.tile_height,
                  system.delta_min);

    for (const auto& polygon : system.polygons) {
      const double area = polygon_area(polygon, dx, dy);
      double hinge = 0.0;
      if (area < static_cast<double>(polygon.area_min)) {
        hinge = area - static_cast<double>(polygon.area_min);  // Negative.
      } else if (polygon.area_max > 0 &&
                 area > static_cast<double>(polygon.area_max)) {
        hinge = area - static_cast<double>(polygon.area_max);  // Positive.
      } else {
        continue;
      }
      // dA/ddx_c = sum of dy over the polygon's cells in column c (and
      // symmetrically for rows).
      for (const auto& cell : polygon.cells) {
        gx[static_cast<std::size_t>(cell.col)] +=
            2.0 * w_area * hinge * dy[static_cast<std::size_t>(cell.row)];
        gy[static_cast<std::size_t>(cell.row)] +=
            2.0 * w_area * hinge * dx[static_cast<std::size_t>(cell.col)];
      }
    }

    for (std::size_t j = 0; j < dx.size(); ++j) {
      const double delta = std::clamp(-lr * gx[j], -max_step_x, max_step_x);
      dx[j] = std::max(0.5, dx[j] + delta);
    }
    for (std::size_t j = 0; j < dy.size(); ++j) {
      const double delta = std::clamp(-lr * gy[j], -max_step_y, max_step_y);
      dy[j] = std::max(0.5, dy[j] + delta);
    }
  }
  return step;
}

// ---- integer finalization ----------------------------------------------------

std::vector<Coord> to_integer(const std::vector<double>& d, Coord delta_min) {
  std::vector<Coord> out(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    out[i] = std::max<Coord>(delta_min,
                             static_cast<Coord>(std::llround(d[i])));
  }
  return out;
}

/// Slack of delta j: how far it can shrink without breaking delta_min or
/// any interval containing j.
Coord delta_slack(const std::vector<Coord>& d,
                  const std::vector<IntervalConstraint>& intervals,
                  std::int64_t j, Coord delta_min) {
  Coord slack = d[static_cast<std::size_t>(j)] - delta_min;
  for (const auto& c : intervals) {
    if (j < c.lo || j > c.hi) {
      continue;
    }
    Coord s = 0;
    for (std::int64_t i = c.lo; i <= c.hi; ++i) {
      s += d[static_cast<std::size_t>(i)];
    }
    slack = std::min(slack, s - c.min_span);
  }
  return slack;
}

/// Restores sum == total by 1-nm moves on maximal-slack (shrink) or
/// arbitrary (grow) deltas. Returns false if stuck.
bool fix_axis_sum(std::vector<Coord>& d,
                  const std::vector<IntervalConstraint>& intervals,
                  Coord total, Coord delta_min) {
  Coord sum = 0;
  for (const auto v : d) {
    sum += v;
  }
  // Grow: distribute deficit over the largest deltas.
  while (sum < total) {
    auto best = std::max_element(d.begin(), d.end());
    const Coord add = std::min<Coord>(total - sum, 1 + (total - sum) / 8);
    *best += add;
    sum += add;
  }
  // Shrink: take from maximal-slack deltas.
  std::int64_t guard = static_cast<std::int64_t>(d.size()) * 1024;
  while (sum > total) {
    DP_CHECK(--guard > 0, "fix_axis_sum: shrink loop diverged");
    std::int64_t best = -1;
    Coord best_slack = 0;
    for (std::int64_t j = 0; j < static_cast<std::int64_t>(d.size()); ++j) {
      const Coord slack = delta_slack(d, intervals, j, delta_min);
      if (slack > best_slack) {
        best_slack = slack;
        best = j;
      }
    }
    if (best < 0) {
      return false;  // No delta can shrink: integer-infeasible.
    }
    const Coord take = std::min<Coord>(best_slack, sum - total);
    d[static_cast<std::size_t>(best)] -= take;
    sum -= take;
  }
  return true;
}

bool axis_feasible_int(const std::vector<Coord>& d,
                       const std::vector<IntervalConstraint>& intervals,
                       Coord total, Coord delta_min) {
  Coord sum = 0;
  for (const auto v : d) {
    if (v < delta_min) {
      return false;
    }
    sum += v;
  }
  if (sum != total) {
    return false;
  }
  for (const auto& c : intervals) {
    Coord s = 0;
    for (std::int64_t i = c.lo; i <= c.hi; ++i) {
      s += d[static_cast<std::size_t>(i)];
    }
    if (s < c.min_span) {
      return false;
    }
  }
  return true;
}

}  // namespace

SolveResult legalize_topology(const BinaryGrid& topology,
                              const drc::DesignRules& rules, Coord tile_width,
                              Coord tile_height, const SolverConfig& config,
                              common::Rng& rng, const DeltaLibrary* library) {
  common::Timer timer;
  SolveResult result;

  const auto verdict = prefilter_topology(topology);
  if (verdict != PrefilterVerdict::ok) {
    result.failure_reason = std::string("prefilter: ") + to_string(verdict);
    result.stats.seconds = timer.seconds();
    return result;
  }

  const ConstraintSystem system =
      build_constraints(topology, rules, tile_width, tile_height);
  if (system.obviously_infeasible()) {
    result.failure_reason = "constraint demands exceed the tile span";
    result.stats.seconds = timer.seconds();
    return result;
  }
  const auto analysis = geometry::analyze_components(topology);

  for (std::int64_t attempt = 0; attempt < config.max_attempts; ++attempt) {
    result.stats.attempts = attempt + 1;
    auto dx = initial_deltas(system, config, rng,
                             library != nullptr ? &library->dx_pool : nullptr,
                             system.cols, system.tile_width);
    auto dy = initial_deltas(system, config, rng,
                             library != nullptr ? &library->dy_pool : nullptr,
                             system.rows, system.tile_height);

    bool converged = false;
    if (config.backend == SolverBackend::penalty_descent) {
      const auto steps =
          penalty_descent(system, dx, dy, config.max_gradient_steps);
      result.stats.rounds += steps;
      converged = steps < config.max_gradient_steps;
      // The descent does not model the Euclidean corner extension; glue the
      // repair loop on top when that rule is active.
      if (converged && rules.euclidean_corner_space) {
        for (std::int64_t round = 0; round < 8; ++round) {
          if (!corner_pass(topology, analysis, rules, dx, dy)) {
            break;
          }
          result.stats.rounds +=
              repair_axis(dx, system.x_intervals, system.tile_width,
                          system.delta_min, 32);
          result.stats.rounds +=
              repair_axis(dy, system.y_intervals, system.tile_height,
                          system.delta_min, 32);
        }
      }
    } else {
      for (std::int64_t round = 0; round < config.max_rounds; ++round) {
        result.stats.rounds +=
            repair_axis(dx, system.x_intervals, system.tile_width,
                        system.delta_min, 32);
        result.stats.rounds +=
            repair_axis(dy, system.y_intervals, system.tile_height,
                        system.delta_min, 32);
        const bool area_adjusted = area_pass(system, dx, dy);
        const bool corner_adjusted =
            corner_pass(topology, analysis, rules, dx, dy);
        if (!area_adjusted && !corner_adjusted &&
            axis_feasible_float(dx, system.x_intervals, system.delta_min) &&
            axis_feasible_float(dy, system.y_intervals, system.delta_min) &&
            areas_feasible_float(system, dx, dy)) {
          converged = true;
          break;
        }
      }
    }
    if (!converged) {
      continue;  // Fresh jitter.
    }

    // Integer snap + local repair.
    auto dxi = to_integer(dx, system.delta_min);
    auto dyi = to_integer(dy, system.delta_min);
    if (!fix_axis_sum(dxi, system.x_intervals, system.tile_width,
                      system.delta_min) ||
        !fix_axis_sum(dyi, system.y_intervals, system.tile_height,
                      system.delta_min)) {
      continue;
    }
    if (!axis_feasible_int(dxi, system.x_intervals, system.tile_width,
                           system.delta_min) ||
        !axis_feasible_int(dyi, system.y_intervals, system.tile_height,
                           system.delta_min)) {
      continue;
    }

    layout::SquishPattern pattern;
    pattern.topology = topology;
    pattern.dx = std::move(dxi);
    pattern.dy = std::move(dyi);
    // Final oracle check: only DRC-clean geometry leaves the solver.
    if (!drc::check_pattern(pattern, rules).clean()) {
      continue;
    }
    result.success = true;
    result.pattern = std::move(pattern);
    result.stats.seconds = timer.seconds();
    return result;
  }

  result.failure_reason = "no DRC-clean assignment found within attempts";
  result.stats.seconds = timer.seconds();
  return result;
}

std::vector<layout::SquishPattern> legalize_topology_many(
    const BinaryGrid& topology, const drc::DesignRules& rules,
    Coord tile_width, Coord tile_height, const SolverConfig& config,
    std::int64_t count, common::Rng& rng, const DeltaLibrary* library) {
  DP_REQUIRE(count >= 1, "legalize_topology_many: count must be >= 1");
  std::vector<layout::SquishPattern> out;
  std::set<std::pair<std::vector<Coord>, std::vector<Coord>>> seen;
  // Oversample: duplicates and failures both consume draws.
  const std::int64_t budget = count * 4;
  SolverConfig diverse = config;
  diverse.jitter = std::max(config.jitter, 0.25);
  for (std::int64_t i = 0;
       i < budget && static_cast<std::int64_t>(out.size()) < count; ++i) {
    auto result = legalize_topology(topology, rules, tile_width, tile_height,
                                    diverse, rng, library);
    if (!result.success) {
      continue;
    }
    if (seen.insert({result.pattern.dx, result.pattern.dy}).second) {
      out.push_back(std::move(result.pattern));
    }
  }
  return out;
}

}  // namespace diffpattern::legalize
