// ULP-distance and kernel-backend helpers shared by the kernel
// equivalence suites.
//
// The dispatched SIMD kernels accumulate with fused multiply-adds (one
// rounding per step) while the retained tensor::reference kernels round the
// multiply and the add separately, so the two agree only within a small
// number of ULPs — these helpers make that bound assertable per element.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/float_compare.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace diffpattern::testutil {

/// Restores the ambient kernel dispatch when a test that forces a backend
/// ends, so test order never matters.
class BackendGuard {
 public:
  BackendGuard() : previous_(tensor::kernel_backend()) {}
  ~BackendGuard() {
    EXPECT_TRUE(tensor::set_kernel_backend(previous_).ok());
  }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  tensor::KernelBackend previous_;
};

/// Every kernel backend this host runs, as the library lists them: scalar
/// (the canonical one) first.
inline std::vector<tensor::KernelBackend> supported_backends() {
  std::vector<tensor::KernelBackend> backends;
  for (const auto& name : tensor::supported_kernel_backend_names()) {
    const auto parsed = tensor::parse_kernel_backend(name);
    EXPECT_TRUE(parsed.ok()) << "listed backend '" << name << "' unparsable";
    if (parsed.ok()) {
      backends.push_back(*parsed);
    }
  }
  return backends;
}

using common::float_order_key;
using common::ulp_distance;

/// Largest per-element ULP distance between two same-shaped tensors.
inline std::int64_t max_ulp_distance(const tensor::Tensor& a,
                                     const tensor::Tensor& b) {
  std::int64_t worst = 0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, ulp_distance(a[i], b[i]));
  }
  return worst;
}

/// Asserts every element of `got` is within `max_ulp` ULPs of `want`, OR
/// within the absolute tolerance `atol`. The absolute escape matters for
/// accumulations that cancel towards zero: there the two rounding schemes
/// legitimately land a fixed absolute distance apart, which is a huge
/// relative (ULP) distance on a tiny result but no less correct.
inline ::testing::AssertionResult ulp_close(const tensor::Tensor& got,
                                            const tensor::Tensor& want,
                                            std::int64_t max_ulp,
                                            float atol = 0.0F) {
  if (!got.same_shape(want)) {
    return ::testing::AssertionFailure()
           << "shape mismatch " << got.shape_string() << " vs "
           << want.shape_string();
  }
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const auto d = ulp_distance(got[i], want[i]);
    if (d > max_ulp && std::abs(got[i] - want[i]) > atol) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " vs " << want[i]
             << " differ by " << d << " ULPs (bound " << max_ulp
             << ", atol " << atol << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace diffpattern::testutil
