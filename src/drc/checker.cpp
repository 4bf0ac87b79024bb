#include "drc/checker.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.h"
#include "geometry/components.h"

namespace diffpattern::drc {

using geometry::Coord;
using layout::SquishPattern;

namespace {

/// Sum of deltas over the inclusive grid-index range [a, b].
Coord span(const std::vector<Coord>& deltas, std::int64_t a, std::int64_t b) {
  Coord s = 0;
  for (std::int64_t i = a; i <= b; ++i) {
    s += deltas[static_cast<std::size_t>(i)];
  }
  return s;
}

/// Checks 1-runs (width) and interior 0-runs (space) along one line of the
/// topology. `line(i)` returns the cell at position i; `deltas` are the
/// interval lengths along the traversal axis.
template <typename LineFn>
void check_runs(LineFn line, std::int64_t length,
                const std::vector<Coord>& deltas, const DesignRules& rules,
                char axis, std::int64_t line_index,
                std::vector<Violation>& out) {
  std::int64_t i = 0;
  bool seen_shape = false;
  while (i < length) {
    const std::uint8_t v = line(i);
    std::int64_t j = i;
    while (j < length && line(j) == v) {
      ++j;
    }
    const Coord run_span = span(deltas, i, j - 1);
    if (v == 1) {
      if (run_span < rules.width_min) {
        out.push_back(Violation{ViolationKind::width, axis, line_index,
                                run_span, rules.width_min});
      }
      seen_shape = true;
    } else {
      const bool flanked_right = j < length;  // A shape follows.
      if (seen_shape && flanked_right && run_span < rules.space_min) {
        out.push_back(Violation{ViolationKind::space, axis, line_index,
                                run_span, rules.space_min});
      }
    }
    i = j;
  }
}

struct NmBox {
  Coord x0, y0, x1, y1;
};

double box_gap_x(const NmBox& a, const NmBox& b) {
  return std::max<Coord>({0, b.x0 - a.x1, a.x0 - b.x1});
}

double box_gap_y(const NmBox& a, const NmBox& b) {
  return std::max<Coord>({0, b.y0 - a.y1, a.y0 - b.y1});
}

}  // namespace

DrcReport check_pattern(const SquishPattern& pattern,
                        const DesignRules& rules) {
  pattern.validate();
  DrcReport report;
  const auto& topo = pattern.topology;
  const auto rows = topo.rows();
  const auto cols = topo.cols();

  // Width / space runs along x (per row) and y (per column).
  for (std::int64_t r = 0; r < rows; ++r) {
    check_runs([&](std::int64_t c) { return topo.get_unchecked(r, c); }, cols,
               pattern.dx, rules, 'x', r, report.violations);
  }
  for (std::int64_t c = 0; c < cols; ++c) {
    check_runs([&](std::int64_t r) { return topo.get_unchecked(r, c); }, rows,
               pattern.dy, rules, 'y', c, report.violations);
  }

  // Diagonal corner contact (zero clearance).
  for (std::int64_t r = 0; r + 1 < rows; ++r) {
    for (std::int64_t c = 0; c + 1 < cols; ++c) {
      const auto a = topo.get_unchecked(r, c);
      const auto b = topo.get_unchecked(r, c + 1);
      const auto d = topo.get_unchecked(r + 1, c);
      const auto e = topo.get_unchecked(r + 1, c + 1);
      if ((a == 1 && e == 1 && b == 0 && d == 0) ||
          (b == 1 && d == 1 && a == 0 && e == 0)) {
        report.violations.push_back(Violation{ViolationKind::corner_contact,
                                              '-', r, 0, rules.space_min});
      }
    }
  }

  // Areas per connected component.
  const auto analysis = geometry::analyze_components(topo);
  for (const auto& comp : analysis.components) {
    std::int64_t area = 0;
    for (const auto& cell : comp.cells) {
      area += pattern.dx[static_cast<std::size_t>(cell.col)] *
              pattern.dy[static_cast<std::size_t>(cell.row)];
    }
    if (area < rules.area_min) {
      report.violations.push_back(
          Violation{ViolationKind::area_min, '-', comp.id, area,
                    rules.area_min});
    }
    if (rules.has_area_max() && area > rules.area_max) {
      report.violations.push_back(
          Violation{ViolationKind::area_max, '-', comp.id, area,
                    rules.area_max});
    }
  }

  // Optional Euclidean corner spacing between distinct polygons.
  if (rules.euclidean_corner_space && analysis.components.size() > 1) {
    // Prefix sums for nm coordinates.
    std::vector<Coord> xs(pattern.dx.size() + 1, 0);
    for (std::size_t i = 0; i < pattern.dx.size(); ++i) {
      xs[i + 1] = xs[i] + pattern.dx[i];
    }
    std::vector<Coord> ys(pattern.dy.size() + 1, 0);
    for (std::size_t i = 0; i < pattern.dy.size(); ++i) {
      ys[i + 1] = ys[i] + pattern.dy[i];
    }
    const auto cell_box = [&](const geometry::GridCell& cell) {
      return NmBox{xs[static_cast<std::size_t>(cell.col)],
                   ys[static_cast<std::size_t>(cell.row)],
                   xs[static_cast<std::size_t>(cell.col + 1)],
                   ys[static_cast<std::size_t>(cell.row + 1)]};
    };
    const auto comp_box = [&](const geometry::Component& comp) {
      return NmBox{xs[static_cast<std::size_t>(comp.min_col)],
                   ys[static_cast<std::size_t>(comp.min_row)],
                   xs[static_cast<std::size_t>(comp.max_col + 1)],
                   ys[static_cast<std::size_t>(comp.max_row + 1)]};
    };
    for (std::size_t i = 0; i < analysis.components.size(); ++i) {
      for (std::size_t j = i + 1; j < analysis.components.size(); ++j) {
        const auto& ca = analysis.components[i];
        const auto& cb = analysis.components[j];
        const NmBox ba = comp_box(ca);
        const NmBox bb = comp_box(cb);
        const double bgx = box_gap_x(ba, bb);
        const double bgy = box_gap_y(ba, bb);
        if (std::hypot(bgx, bgy) >= static_cast<double>(rules.space_min)) {
          continue;  // Bounding boxes already far enough apart.
        }
        double best = std::numeric_limits<double>::infinity();
        for (const auto& cell_a : ca.cells) {
          const NmBox ra = cell_box(cell_a);
          for (const auto& cell_b : cb.cells) {
            const NmBox rb = cell_box(cell_b);
            const double gx = box_gap_x(ra, rb);
            const double gy = box_gap_y(ra, rb);
            if (gx > 0.0 && gy > 0.0) {
              best = std::min(best, std::hypot(gx, gy));
            }
          }
        }
        if (best < static_cast<double>(rules.space_min)) {
          report.violations.push_back(Violation{
              ViolationKind::corner_space, '-', ca.id,
              static_cast<std::int64_t>(std::floor(best)), rules.space_min});
        }
      }
    }
  }

  return report;
}

DrcReport check_layout(const layout::Layout& layout, const DesignRules& rules) {
  return check_pattern(layout::extract_squish(layout), rules);
}

}  // namespace diffpattern::drc
