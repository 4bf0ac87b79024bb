// Design-rule checker over layouts and squish patterns.
//
// This is the repository's stand-in for the KLayout-based legality check in
// the paper's evaluation (Sec. IV-B). It never trusts the generator: given a
// Layout it re-derives scan lines from the polygon geometry before applying
// the run/space/area predicates of rules.h.
#pragma once

#include <vector>

#include "drc/rules.h"
#include "layout/squish.h"

namespace diffpattern::drc {

enum class ViolationKind {
  width,          // 1-run shorter than width_min
  space,          // 0-run between shapes shorter than space_min
  corner_contact, // diagonal cell contact (zero clearance)
  corner_space,   // Euclidean corner gap below space_min (extension rule)
  area_min,
  area_max,
};

struct Violation {
  ViolationKind kind = ViolationKind::width;
  /// 'x' for a horizontal measurement, 'y' for vertical, '-' otherwise.
  char axis = '-';
  /// Row (axis 'x') or column (axis 'y') of the offending run; component id
  /// for area violations; -1 when not applicable.
  std::int64_t index = -1;
  /// Measured value (nm for width/space, nm^2 for area).
  std::int64_t measured = 0;
  /// Rule bound that was violated.
  std::int64_t required = 0;
};

struct DrcReport {
  std::vector<Violation> violations;

  bool clean() const { return violations.empty(); }
};

/// Checks a squish pattern directly (topology runs weighted by deltas).
DrcReport check_pattern(const layout::SquishPattern& pattern,
                        const DesignRules& rules);

/// Checks a layout by re-extracting its squish pattern first.
DrcReport check_layout(const layout::Layout& layout, const DesignRules& rules);

}  // namespace diffpattern::drc
