// Shared helper for the DRC suites: how many violations of one kind a
// report holds.
#pragma once

#include <algorithm>
#include <cstdint>

#include "drc/checker.h"

namespace diffpattern::drc::test {

inline std::int64_t count_kind(const DrcReport& report, ViolationKind kind) {
  return std::count_if(report.violations.begin(), report.violations.end(),
                       [kind](const Violation& v) { return v.kind == kind; });
}

}  // namespace diffpattern::drc::test
