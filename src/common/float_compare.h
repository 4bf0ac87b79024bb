// ULP-distance primitives for float comparison.
//
// Shared by the test suites (tests/ulp_test_util.h) and the kernel
// microbench: the dispatched SIMD kernels accumulate with fused
// multiply-adds while the test-support tensor::reference kernels
// (tests/support/reference_kernels.h) round mul and add separately, so
// equivalence checks are phrased as "within N ULPs"
// rather than bitwise — and both consumers must agree on what an ULP is.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace diffpattern::common {

/// Maps a float onto a monotonically ordered integer line so that adjacent
/// representable floats are 1 apart; +0 and -0 coincide.
inline std::int64_t float_order_key(float x) {
  std::int32_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits >= 0 ? static_cast<std::int64_t>(bits)
                   : -static_cast<std::int64_t>(bits & 0x7fffffff);
}

/// ULP distance between two floats. NaN pairs are distance 0; a NaN
/// against a number is infinitely far.
inline std::int64_t ulp_distance(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b)
               ? 0
               : std::numeric_limits<std::int64_t>::max();
  }
  const auto d = float_order_key(a) - float_order_key(b);
  return d >= 0 ? d : -d;
}

}  // namespace diffpattern::common
