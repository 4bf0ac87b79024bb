// SIMD kernel tier tests: runtime dispatch plumbing, bitwise parity between
// the scalar (canonical) backend and every vector backend this host can
// run, and ULP-bounded equivalence against the retained tensor::reference
// oracle — at sizes chosen to exercise every remainder/tail path
// (non-multiples of the 8-float / 4-double lane widths, 1x1 convolutions,
// odd channel counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/compute_pool.h"
#include "common/rng.h"
#include "nn/autograd.h"
#include "nn/ops.h"
#include "support/reference_kernels.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "ulp_test_util.h"

namespace dc = diffpattern::common;
namespace dt = diffpattern::tensor;
namespace dn = diffpattern::nn;
namespace du = diffpattern::testutil;
using dt::KernelBackend;
using dt::Tensor;

namespace {

using du::BackendGuard;
using du::supported_backends;

/// Element counts covering full-vector blocks, every tail length of the
/// 8-float and 4-double lane widths, and the degenerate n=1 case.
const std::int64_t kTailSizes[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  11,
                                   12, 13, 15, 16, 17, 23, 24, 31, 32, 33,
                                   63, 64, 65, 100};

Tensor random_tensor(dt::Shape shape, dc::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal());
  }
  return t;
}

::testing::AssertionResult bitwise_equal(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) {
    return ::testing::AssertionFailure()
           << "shape mismatch " << a.shape_string() << " vs "
           << b.shape_string();
  }
  if (std::memcmp(a.data(), b.data(),
                  static_cast<std::size_t>(a.numel()) * sizeof(float)) != 0) {
    return ::testing::AssertionFailure() << "tensors differ bitwise";
  }
  return ::testing::AssertionSuccess();
}

/// ULP bound for one fused-vs-split rounding difference per accumulation
/// step, summed over the inner dimensions used below. Observed distances
/// are single digits; the slack guards against unlucky cancellation, not
/// against real bugs (those show up thousands of ULPs away or as shape
/// garbage).
constexpr std::int64_t kGemmUlpBound = 128;

/// Absolute escape hatch for accumulations that cancel towards zero: a
/// fixed absolute drift (~inner_dim * eps * operand scale) is a huge ULP
/// distance on a near-zero result without being any less correct.
constexpr float kGemmAtol = 1e-5F;

}  // namespace

// --------------------------------------------------------------- dispatch

TEST(SimdKernels, ScalarBackendIsAlwaysAvailable) {
  EXPECT_TRUE(dt::kernel_backend_supported(KernelBackend::kScalar));
  ASSERT_NE(dt::simd::table_for(KernelBackend::kScalar), nullptr);
  const auto names = dt::supported_kernel_backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "scalar"), names.end());
}

TEST(SimdKernels, ActiveTableMatchesReportedBackend) {
  BackendGuard guard;
  for (const auto backend : supported_backends()) {
    ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
    EXPECT_EQ(dt::kernel_backend(), backend);
    EXPECT_EQ(dt::kernel_backend_name(), dt::kernel_backend_label(backend));
    EXPECT_EQ(dt::simd::active().backend, backend);
  }
}

TEST(SimdKernels, ParseRejectsUnknownNamesWithInvalidArgument) {
  for (const char* bad : {"warp9", "", "AVX2", "sse", "scalar ", "neon"}) {
    const auto parsed = dt::parse_kernel_backend(bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "' parsed";
    EXPECT_EQ(parsed.status().code(), dc::StatusCode::kInvalidArgument);
    const auto status = dt::set_kernel_backend_name(bad);
    EXPECT_EQ(status.code(), dc::StatusCode::kInvalidArgument);
  }
}

TEST(SimdKernels, AutoResolvesToDetectedBackend) {
  BackendGuard guard;
  const auto parsed = dt::parse_kernel_backend("auto");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, dt::detected_kernel_backend());
  ASSERT_TRUE(dt::set_kernel_backend_name("auto").ok());
  EXPECT_EQ(dt::kernel_backend(), dt::detected_kernel_backend());
}

TEST(SimdKernels, UnsupportedIsaAnswersInvalidArgumentAndKeepsDispatch) {
  // A host that runs every backend still has one it cannot run: a value
  // past the last enumerator, for which table_for answers nullptr.
  const auto before = dt::kernel_backend();
  const auto status =
      dt::kernel_backend_supported(KernelBackend::kAvx2)
          ? dt::set_kernel_backend(static_cast<KernelBackend>(2))
          : dt::set_kernel_backend_name("avx2");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), dc::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("not supported on this host"),
            std::string::npos);
  EXPECT_EQ(dt::kernel_backend(), before);  // Dispatch untouched.
}

// ------------------------------------------------- raw kernel table parity

TEST(SimdKernels, AxpyBackendParityAndTailCoverage) {
  dc::Rng rng(101);
  const auto* scalar = dt::simd::table_for(KernelBackend::kScalar);
  for (const auto backend : supported_backends()) {
    const auto* table = dt::simd::table_for(backend);
    ASSERT_NE(table, nullptr);
    for (const auto n : kTailSizes) {
      const Tensor x = random_tensor({n}, rng);
      const Tensor y0 = random_tensor({n}, rng);
      const float a = static_cast<float>(rng.normal());
      Tensor want = y0;
      scalar->axpy(a, x.data(), want.data(), n);
      Tensor got = y0;
      table->axpy(a, x.data(), got.data(), n);
      EXPECT_TRUE(bitwise_equal(got, want))
          << dt::kernel_backend_label(backend) << " n=" << n;
      // One fused rounding vs mul+add: within a couple of ULPs of naive.
      for (std::int64_t i = 0; i < n; ++i) {
        const float naive = y0[i] + a * x[i];
        EXPECT_TRUE(du::ulp_distance(got[i], naive) <= 2 ||
                    std::abs(got[i] - naive) <= 2e-6F)
            << "n=" << n << " i=" << i << ": " << got[i] << " vs " << naive;
      }
    }
  }
}

// The register tile against the axpy chain it replaces, for every backend.
// Operands live in strided buffers (lda/ldc wider than the tile) so a write
// outside the 4x16 tile shows as a padding mismatch. The two halves of each
// row of B live in separate buffers at unrelated addresses, reached through
// a shuffled offset table with gaps between the rows, as the convolution
// reads them. C starts with -0 entries, and each non-finite B value sits in
// a column of its own: a zero a_ik against an infinity must skip (fma would
// give NaN), and with one special per column no result depends on which NaN
// payload an FMA form propagates — so the comparison stays memcmp. Every k
// runs four A blocks: random zeros of both signs; none at all (the AVX2
// tile's branch-free loop); and a lone zero at k = 0 of row 0 or at the last
// k of row 3, each meeting an infinity, so the zero scan must find it at
// the first element and in its masked tail. Every backend's block_has_zero
// must agree with the block, and each tile runs with that flag and with
// the always-correct flag true.
TEST(SimdKernels, GemmTileMatchesAxpyChainBitwise) {
  constexpr std::int64_t kRows = dt::simd::kTileRows;
  constexpr std::int64_t kCols = dt::simd::kTileCols;
  constexpr std::int64_t kHalf = dt::simd::kTileHalf;
  constexpr std::int64_t kRowGap = kHalf + 3;  // B rows do not touch.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  enum class Zeros { kRandom, kNone, kFirstOfRow0, kLastOfRow3 };
  const auto* scalar = dt::simd::table_for(KernelBackend::kScalar);
  dc::Rng rng(109);
  for (const std::int64_t k : {0, 1, 2, 3, 7, 8, 9, 16, 17, 33, 144}) {
    for (const auto zeros : {Zeros::kRandom, Zeros::kNone,
                             Zeros::kFirstOfRow0, Zeros::kLastOfRow3}) {
      const std::int64_t lda = k + 3;
      const std::int64_t ldc = kCols + 2;
      std::vector<float> a(static_cast<std::size_t>(kRows * lda), 0.0F);
      // Row kk of B: columns 0..7 at lo + koff[kk], 8..15 at hi + koff[kk],
      // with the rows in a shuffled order.
      const auto slots = std::max<std::int64_t>(k, 1) * kRowGap;
      std::vector<float> lo(static_cast<std::size_t>(slots));
      std::vector<float> hi(static_cast<std::size_t>(slots + 5));
      std::vector<std::int64_t> koff(static_cast<std::size_t>(k));
      for (std::int64_t kk = 0; kk < k; ++kk) {
        koff[static_cast<std::size_t>(kk)] = (kk * 5 + 3) % k * kRowGap;
      }
      const float* b_lo = lo.data();
      const float* b_hi = hi.data() + 5;
      const auto bk = [&](std::int64_t kk, std::int64_t j) -> float& {
        const auto off = koff[static_cast<std::size_t>(kk)];
        return j < kHalf ? lo[static_cast<std::size_t>(off + j)]
                         : hi[static_cast<std::size_t>(5 + off + j - kHalf)];
      };
      std::vector<float> c0(static_cast<std::size_t>(kRows * ldc));
      const auto at = [&](std::int64_t i, std::int64_t kk) -> float& {
        return a[static_cast<std::size_t>(i * lda + kk)];
      };
      for (std::int64_t i = 0; i < kRows; ++i) {
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const double u = rng.uniform(0.0, 1.0);
          float v = static_cast<float>(rng.normal());
          if (zeros == Zeros::kRandom && u < 0.25) {
            v = u < 0.15 ? 0.0F : -0.0F;
          }
          at(i, kk) = v;
        }
      }
      for (auto* buf : {&lo, &hi}) {
        for (auto& v : *buf) {
          v = static_cast<float>(rng.normal());
        }
      }
      for (auto& v : c0) {
        v = rng.uniform(0.0, 1.0) < 0.3 ? -0.0F
                                         : static_cast<float>(rng.normal());
      }
      if (k >= 1) {
        bk(0, 5) = -kInf;
        bk(k - 1, 11) = kInf;
      }
      if (k >= 2) {
        bk(1, 3) = kInf;
        bk(1, 7) = std::numeric_limits<float>::quiet_NaN();
        for (std::int64_t kk = 0; kk < k; ++kk) {
          bk(kk, 9) = -0.0F;
        }
        if (zeros == Zeros::kRandom) {
          at(2, 1) = 0.0F;   // Meets +inf: skip.
          at(3, 0) = -0.0F;  // Meets -inf.
        }
      }
      if (k >= 1 && zeros == Zeros::kFirstOfRow0) {
        at(0, 0) = -0.0F;  // Meets -inf.
      }
      if (k >= 1 && zeros == Zeros::kLastOfRow3) {
        at(3, k - 1) = 0.0F;  // Meets +inf.
      }
      // The oracle: per row, the axpy chain over the nonzero a_ik.
      std::vector<float> want = c0;
      bool block_zero = false;
      for (std::int64_t i = 0; i < kRows; ++i) {
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const float av = at(i, kk);
          if (av == 0.0F) {
            block_zero = true;
            continue;
          }
          float brow[kCols];
          for (std::int64_t j = 0; j < kCols; ++j) {
            brow[j] = bk(kk, j);
          }
          scalar->axpy(av, brow, want.data() + i * ldc, kCols);
        }
      }
      for (const auto backend : supported_backends()) {
        const auto* table = dt::simd::table_for(backend);
        const bool flag = table->block_has_zero(a.data(), lda, k);
        EXPECT_EQ(flag, block_zero)
            << dt::kernel_backend_label(backend) << " k=" << k
            << " zeros=" << static_cast<int>(zeros);
        for (const bool a_has_zero : {flag, true}) {
          std::vector<float> got = c0;
          table->gemm_tile(a.data(), lda, a_has_zero, b_lo, b_hi,
                           koff.data(), got.data(), ldc, k);
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                want.size() * sizeof(float)),
                    0)
              << dt::kernel_backend_label(backend) << " k=" << k
              << " zeros=" << static_cast<int>(zeros)
              << " a_has_zero=" << a_has_zero;
        }
      }
    }
  }
}

TEST(SimdKernels, DotBackendParityAndDoubleReference) {
  dc::Rng rng(103);
  const auto* scalar = dt::simd::table_for(KernelBackend::kScalar);
  for (const auto n : kTailSizes) {
    const Tensor x = random_tensor({n}, rng);
    const Tensor y = random_tensor({n}, rng);
    const float want = scalar->dot(x.data(), y.data(), n);
    double exact = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      exact += static_cast<double>(x[i]) * static_cast<double>(y[i]);
    }
    EXPECT_TRUE(du::ulp_distance(want, static_cast<float>(exact)) <=
                    kGemmUlpBound ||
                std::abs(want - static_cast<float>(exact)) <= kGemmAtol)
        << "n=" << n << ": " << want << " vs " << exact;
    for (const auto backend : supported_backends()) {
      const auto* table = dt::simd::table_for(backend);
      const float got = table->dot(x.data(), y.data(), n);
      EXPECT_EQ(du::ulp_distance(got, want), 0)
          << dt::kernel_backend_label(backend) << " n=" << n << ": " << got
          << " vs " << want;
    }
  }
}

TEST(SimdKernels, ElementwiseKernelsExactAcrossBackends) {
  dc::Rng rng(107);
  for (const auto backend : supported_backends()) {
    const auto* table = dt::simd::table_for(backend);
    for (const auto n : kTailSizes) {
      const Tensor x = random_tensor({n}, rng);
      const Tensor y0 = random_tensor({n}, rng);
      const float s = static_cast<float>(rng.normal());

      Tensor got = y0;
      table->add(got.data(), x.data(), n);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], y0[i] + x[i]) << "add n=" << n;
      }
      got = y0;
      table->mul(got.data(), x.data(), n);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], y0[i] * x[i]) << "mul n=" << n;
      }
      got = y0;
      table->scale(got.data(), s, n);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], y0[i] * s) << "scale n=" << n;
      }
      Tensor shifted({n});
      table->shift(shifted.data(), x.data(), s, n);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(shifted[i], x[i] + s) << "shift n=" << n;
      }
      got = y0;
      table->relu(got.data(), n);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], y0[i] > 0.0F ? y0[i] : 0.0F) << "relu n=" << n;
      }
    }
  }
}

TEST(SimdKernels, MaxKernelExactAcrossBackends) {
  dc::Rng rng(109);
  for (const auto backend : supported_backends()) {
    const auto* table = dt::simd::table_for(backend);
    for (const auto n : kTailSizes) {
      const Tensor x = random_tensor({n}, rng);
      float want = x[0];
      for (std::int64_t i = 1; i < n; ++i) {
        want = std::max(want, x[i]);
      }
      EXPECT_EQ(table->max(x.data(), n), want)
          << dt::kernel_backend_label(backend) << " n=" << n;
    }
  }
}

TEST(SimdKernels, MomentKernelsBackendParityAndDoubleReference) {
  dc::Rng rng(113);
  const auto* scalar = dt::simd::table_for(KernelBackend::kScalar);
  for (const auto n : kTailSizes) {
    // 1..9 consecutive rows: whole blocks of four interleaved rows, the
    // rows after them, and both together.
    for (std::int64_t rows = 1; rows <= 9; ++rows) {
      const Tensor x = random_tensor({rows, n}, rng);
      std::vector<double> sum_want(static_cast<std::size_t>(rows));
      scalar->sum(x.data(), n, rows, sum_want.data());
      std::vector<double> mean(static_cast<std::size_t>(rows));
      for (std::int64_t r = 0; r < rows; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        double exact = 0.0;
        double alone = 0.0;
        for (std::int64_t i = 0; i < n; ++i) {
          exact += static_cast<double>(x[r * n + i]);
        }
        EXPECT_NEAR(sum_want[ri], exact,
                    1e-9 * std::max(1.0, std::abs(exact)));
        // A row's sum does not depend on the rows around it.
        scalar->sum(x.data() + r * n, n, 1, &alone);
        EXPECT_EQ(alone, sum_want[ri]) << "n=" << n << " row " << r;
        mean[ri] = sum_want[ri] / static_cast<double>(n);
      }
      std::vector<double> sq_want(static_cast<std::size_t>(rows));
      scalar->sumsq_centered(x.data(), mean.data(), n, rows, sq_want.data());
      for (const auto backend : supported_backends()) {
        const auto* table = dt::simd::table_for(backend);
        // Double lanes reduce in a fixed tree: bitwise across backends.
        std::vector<double> got(static_cast<std::size_t>(rows));
        table->sum(x.data(), n, rows, got.data());
        EXPECT_EQ(got, sum_want) << dt::kernel_backend_label(backend)
                                 << " n=" << n << " rows=" << rows;
        table->sumsq_centered(x.data(), mean.data(), n, rows, got.data());
        EXPECT_EQ(got, sq_want) << dt::kernel_backend_label(backend)
                                << " n=" << n << " rows=" << rows;
        for (std::int64_t r = 0; r < rows; ++r) {
          double alone = 0.0;
          table->sumsq_centered(x.data() + r * n, mean.data() + r, n, 1,
                                &alone);
          EXPECT_EQ(alone, sq_want[static_cast<std::size_t>(r)])
              << dt::kernel_backend_label(backend) << " n=" << n << " row "
              << r;
        }
      }
    }
  }
}

TEST(SimdKernels, NormalizeAffineBackendParity) {
  dc::Rng rng(127);
  const auto* scalar = dt::simd::table_for(KernelBackend::kScalar);
  for (const auto backend : supported_backends()) {
    const auto* table = dt::simd::table_for(backend);
    for (const auto n : kTailSizes) {
      const Tensor x = random_tensor({n}, rng);
      const Tensor gamma = random_tensor({n}, rng);
      const Tensor beta = random_tensor({n}, rng);
      const float mean = static_cast<float>(rng.normal());
      const float istd = std::abs(static_cast<float>(rng.normal())) + 0.5F;

      Tensor want_xhat({n});
      Tensor want_y({n});
      scalar->normalize_affine(x.data(), mean, istd, gamma[0], beta[0],
                               want_xhat.data(), want_y.data(), n);
      Tensor got_xhat({n});
      Tensor got_y({n});
      table->normalize_affine(x.data(), mean, istd, gamma[0], beta[0],
                              got_xhat.data(), got_y.data(), n);
      EXPECT_TRUE(bitwise_equal(got_xhat, want_xhat)) << "n=" << n;
      EXPECT_TRUE(bitwise_equal(got_y, want_y)) << "n=" << n;
      // No xhat (inference): the same y bytes.
      Tensor y_only({n});
      table->normalize_affine(x.data(), mean, istd, gamma[0], beta[0],
                              nullptr, y_only.data(), n);
      EXPECT_TRUE(bitwise_equal(y_only, want_y)) << "no xhat n=" << n;

      scalar->normalize_affine_rows(x.data(), mean, istd, gamma.data(),
                                    beta.data(), want_xhat.data(),
                                    want_y.data(), n);
      table->normalize_affine_rows(x.data(), mean, istd, gamma.data(),
                                   beta.data(), got_xhat.data(),
                                   got_y.data(), n);
      EXPECT_TRUE(bitwise_equal(got_xhat, want_xhat)) << "rows n=" << n;
      EXPECT_TRUE(bitwise_equal(got_y, want_y)) << "rows n=" << n;
    }
  }
}

namespace {

/// Every 4099th of all 2^32 bit patterns (about 1.05 M floats: both signs,
/// every exponent, spread mantissas), then the special values: signed
/// zeros, infinities, NaNs, subnormals, the float extremes and the exp
/// clamp boundary on both sides of zero.
std::vector<float> sigmoid_sweep_inputs() {
  std::vector<float> xs;
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << 32); bits += 4099) {
    xs.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(bits)));
  }
  using lim = std::numeric_limits<float>;
  const float lo = dt::simd::detail::kExpLo;
  for (const float v :
       {0.0F, lim::infinity(), lim::quiet_NaN(), lim::signaling_NaN(),
        lim::denorm_min(), lim::min() / 2.0F, lim::min(), lim::max(), lo,
        std::nextafter(lo, 0.0F), std::nextafter(lo, -lim::infinity())}) {
    xs.push_back(v);
    xs.push_back(-v);
  }
  return xs;
}

}  // namespace

TEST(SimdKernels, SigmoidSiluBitwiseAcrossBackends) {
  const std::vector<float> xs = sigmoid_sweep_inputs();
  const auto n = static_cast<std::int64_t>(xs.size());
  const auto bytes = static_cast<std::size_t>(n) * sizeof(float);
  const auto* scalar = dt::simd::table_for(KernelBackend::kScalar);
  std::vector<float> want_sig(xs.size());
  std::vector<float> want_silu(xs.size());
  scalar->sigmoid(want_sig.data(), xs.data(), n);
  scalar->silu(want_silu.data(), xs.data(), n);
  for (const auto backend : supported_backends()) {
    const auto* table = dt::simd::table_for(backend);
    const char* label = dt::kernel_backend_label(backend);
    std::vector<float> got(xs.size());
    table->sigmoid(got.data(), xs.data(), n);
    EXPECT_EQ(std::memcmp(got.data(), want_sig.data(), bytes), 0) << label;
    table->silu(got.data(), xs.data(), n);
    EXPECT_EQ(std::memcmp(got.data(), want_silu.data(), bytes), 0) << label;
    // In place, and every tail length from an unaligned start.
    got = xs;
    table->silu(got.data(), got.data(), n);
    EXPECT_EQ(std::memcmp(got.data(), want_silu.data(), bytes), 0) << label;
    for (const auto len : kTailSizes) {
      table->sigmoid(got.data(), xs.data() + 1, len);
      EXPECT_EQ(std::memcmp(got.data(), want_sig.data() + 1,
                            static_cast<std::size_t>(len) * sizeof(float)),
                0)
          << label << " n=" << len;
    }
  }

  // Against the double-precision reference: sigmoid within 2 ulp where it
  // is a normal float, within FLT_MIN of it where it is not (exp below
  // kExpLo is +0); SiLU = x * sigmoid(x) within 3 ulp where that sigmoid
  // is normal, within |x| * FLT_MIN elsewhere. NaN in gives NaN out; the
  // infinities are checked by value after the loop.
  Tensor x({n});
  std::copy(xs.begin(), xs.end(), x.data());
  const Tensor ref_sig = dt::reference::sigmoid(x);
  const Tensor ref_silu = dt::reference::silu(x);
  constexpr float kMin = std::numeric_limits<float>::min();
  for (std::int64_t i = 0; i < n; ++i) {
    if (std::isinf(xs[i])) {
      continue;
    }
    if (std::abs(ref_sig[i]) >= kMin || std::isnan(ref_sig[i])) {
      ASSERT_LE(du::ulp_distance(want_sig[i], ref_sig[i]), 2) << "x=" << xs[i];
      ASSERT_LE(du::ulp_distance(want_silu[i], ref_silu[i]), 3)
          << "x=" << xs[i];
    } else {
      ASSERT_LE(std::abs(want_sig[i] - ref_sig[i]), kMin) << "x=" << xs[i];
      ASSERT_LE(std::abs(want_silu[i] - ref_silu[i]), std::abs(xs[i]) * kMin)
          << "x=" << xs[i];
    }
  }
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0F, -0.0F, kInf, -kInf};
  float sig[4];
  float silu[4];
  scalar->sigmoid(sig, specials, 4);
  scalar->silu(silu, specials, 4);
  EXPECT_EQ(sig[0], 0.5F);
  EXPECT_EQ(sig[1], 0.5F);
  EXPECT_EQ(sig[2], 1.0F);
  EXPECT_EQ(sig[3], 0.0F);
  EXPECT_TRUE(std::signbit(silu[1]));  // silu(-0) = -0.
  EXPECT_EQ(silu[2], kInf);
  EXPECT_TRUE(std::isnan(silu[3]));  // -inf * 0, as in the reference.

  // nn::silu and nn::sigmoid write the same bytes with and without a graph.
  dc::Rng rng(167);
  Tensor act = random_tensor({4, 16, 8, 8}, rng);
  for (std::int64_t i = 0; i < act.numel(); ++i) {
    act[i] *= 8.0F;
  }
  EXPECT_TRUE(bitwise_equal(dn::silu(dn::Var(act, true)).value(),
                            dn::silu(dn::Var(act)).value()));
  EXPECT_TRUE(bitwise_equal(dn::sigmoid(dn::Var(act, true)).value(),
                            dn::sigmoid(dn::Var(act)).value()));
}

// ------------------------------------------- tensor-op level equivalence

TEST(SimdKernels, MatmulFamilyBackendInvariantAndUlpCloseToReference) {
  BackendGuard guard;
  dc::Rng rng(131);
  // Odd inner/outer sizes defeat lane alignment; zeros exercise the sparse
  // skip path identically in every backend.
  Tensor a = random_tensor({65, 47}, rng);
  const Tensor b = random_tensor({47, 83}, rng);
  for (std::int64_t i = 0; i < a.numel(); i += 7) {
    a[i] = 0.0F;
  }
  const Tensor ta = random_tensor({65, 83}, rng);  // For transpose_a.
  const Tensor tb = random_tensor({29, 47}, rng);  // For transpose_b.

  Tensor mm_base;
  Tensor mta_base;
  Tensor mtb_base;
  for (const auto backend : supported_backends()) {
    ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
    const Tensor mm = dt::matmul(a, b);
    const Tensor mta = dt::matmul_transpose_a(a, ta);
    const Tensor mtb = dt::matmul_transpose_b(a, tb);
    if (mm_base.empty()) {
      mm_base = mm;
      mta_base = mta;
      mtb_base = mtb;
    } else {
      EXPECT_TRUE(bitwise_equal(mm, mm_base))
          << dt::kernel_backend_label(backend);
      EXPECT_TRUE(bitwise_equal(mta, mta_base))
          << dt::kernel_backend_label(backend);
      EXPECT_TRUE(bitwise_equal(mtb, mtb_base))
          << dt::kernel_backend_label(backend);
    }
  }
  // Tiles plus ragged rows and columns keep the axpy chain of the scalar
  // table element for element (for A^T: over i ascending).
  const auto* scalar = dt::simd::table_for(KernelBackend::kScalar);
  Tensor mm_chain({65, 83}, 0.0F);
  Tensor mta_chain({47, 83}, 0.0F);
  for (std::int64_t i = 0; i < 65; ++i) {
    for (std::int64_t kk = 0; kk < 47; ++kk) {
      const float av = a[i * 47 + kk];
      if (av != 0.0F) {
        scalar->axpy(av, b.data() + kk * 83, mm_chain.data() + i * 83, 83);
        scalar->axpy(av, ta.data() + i * 83, mta_chain.data() + kk * 83, 83);
      }
    }
  }
  EXPECT_TRUE(bitwise_equal(mm_base, mm_chain));
  EXPECT_TRUE(bitwise_equal(mta_base, mta_chain));
  EXPECT_TRUE(du::ulp_close(mm_base, dt::reference::matmul(a, b),
                            kGemmUlpBound, kGemmAtol));
  EXPECT_TRUE(du::ulp_close(mta_base, dt::reference::matmul_transpose_a(a, ta),
                            kGemmUlpBound, kGemmAtol));
  EXPECT_TRUE(du::ulp_close(mtb_base, dt::reference::matmul_transpose_b(a, tb),
                            kGemmUlpBound, kGemmAtol));
}

TEST(SimdKernels, MatmulSingleColumnAndSingleElementShapes) {
  BackendGuard guard;
  dc::Rng rng(137);
  // N=1 puts every axpy on the tail path; 1x1x1 is the degenerate GEMM.
  const Tensor a = random_tensor({9, 13}, rng);
  const Tensor b = random_tensor({13, 1}, rng);
  const Tensor a1 = random_tensor({1, 1}, rng);
  const Tensor b1 = random_tensor({1, 1}, rng);
  Tensor col_base;
  Tensor one_base;
  for (const auto backend : supported_backends()) {
    ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
    const Tensor col = dt::matmul(a, b);
    const Tensor one = dt::matmul(a1, b1);
    if (col_base.empty()) {
      col_base = col;
      one_base = one;
    } else {
      EXPECT_TRUE(bitwise_equal(col, col_base));
      EXPECT_TRUE(bitwise_equal(one, one_base));
    }
  }
  EXPECT_TRUE(du::ulp_close(col_base, dt::reference::matmul(a, b),
                            kGemmUlpBound, kGemmAtol));
  EXPECT_TRUE(du::ulp_close(one_base, dt::reference::matmul(a1, b1), 2));
}

TEST(SimdKernels, SoftmaxRowsBackendInvariant) {
  BackendGuard guard;
  dc::Rng rng(139);
  const Tensor logits = random_tensor({33, 37}, rng);  // Odd row width.
  Tensor base;
  for (const auto backend : supported_backends()) {
    ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
    const Tensor out = dt::softmax_rows(logits);
    if (base.empty()) {
      base = out;
    } else {
      EXPECT_TRUE(bitwise_equal(out, base))
          << dt::kernel_backend_label(backend);
    }
  }
  // Max and the final scale are exact in every backend; the whole op stays
  // bitwise equal to the reference.
  EXPECT_TRUE(bitwise_equal(base, dt::reference::softmax_rows(logits)));
}

namespace {

/// Per-sample conv reference composed from the retained naive kernels
/// (reference GEMM over a batch-of-one im2col per sample), the oracle
/// bench_kernels uses.
Tensor conv_reference(const Tensor& x, const Tensor& w, const Tensor& b,
                      std::int64_t stride, std::int64_t padding) {
  dt::Conv2dGeometry geom;
  geom.in_channels = x.dim(1);
  geom.in_h = x.dim(2);
  geom.in_w = x.dim(3);
  geom.kernel_h = w.dim(2);
  geom.kernel_w = w.dim(3);
  geom.stride = stride;
  geom.padding = padding;
  const auto batch = x.dim(0);
  const auto out_ch = w.dim(0);
  const auto n_out = geom.out_h() * geom.out_w();
  const Tensor w2d = w.reshaped({out_ch, geom.patch_size()});
  Tensor out({batch, out_ch, geom.out_h(), geom.out_w()});
  for (std::int64_t n = 0; n < batch; ++n) {
    Tensor image({1, x.dim(1), x.dim(2), x.dim(3)});
    std::copy(x.data() + n * image.numel(),
              x.data() + (n + 1) * image.numel(), image.data());
    const Tensor y =
        dt::reference::matmul(w2d, dt::im2col_batch(image, geom));
    for (std::int64_t o = 0; o < out_ch; ++o) {
      for (std::int64_t p = 0; p < n_out; ++p) {
        out[(n * out_ch + o) * n_out + p] = y[o * n_out + p] + b[o];
      }
    }
  }
  return out;
}

}  // namespace

TEST(SimdKernels, ConvolutionTailShapesBackendInvariantAndUlpClose) {
  BackendGuard guard;
  dc::Rng rng(149);
  dn::NoGradGuard no_grad;
  struct Case {
    dt::Shape x;
    dt::Shape w;
    std::int64_t stride;
    std::int64_t padding;
  };
  // Odd channel counts, 1x1 kernels, and widths straddling the 8-lane
  // boundary — the shapes whose tails hide out-of-bounds bugs.
  const Case cases[] = {
      {{2, 3, 5, 7}, {5, 3, 3, 3}, 1, 1},   // Odd channels, W=7 tail.
      {{1, 1, 8, 9}, {3, 1, 1, 1}, 1, 0},   // 1x1 conv, single channel.
      {{3, 5, 4, 4}, {7, 5, 1, 1}, 1, 0},   // 1x1 conv, odd channels.
      {{2, 2, 9, 9}, {4, 2, 3, 3}, 2, 1},   // Strided, odd output width.
      {{1, 4, 3, 3}, {2, 4, 3, 3}, 1, 0},   // Output collapses to 1x1.
  };
  for (const auto& c : cases) {
    dc::Rng data_rng(151);
    const Tensor x = random_tensor(c.x, data_rng);
    const Tensor w = random_tensor(c.w, data_rng);
    const Tensor b = random_tensor({c.w[0]}, data_rng);
    Tensor base;
    for (const auto backend : supported_backends()) {
      ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
      const Tensor out =
          dn::conv2d(dn::Var(x), dn::Var(w), dn::Var(b), c.stride, c.padding)
              .value();
      if (base.empty()) {
        base = out;
      } else {
        EXPECT_TRUE(bitwise_equal(out, base))
            << dt::kernel_backend_label(backend);
      }
    }
    EXPECT_TRUE(du::ulp_close(base, conv_reference(x, w, b, c.stride,
                                                   c.padding),
                              kGemmUlpBound, kGemmAtol));
  }
}

TEST(SimdKernels, NormalizationOpsBackendInvariant) {
  BackendGuard guard;
  dc::Rng rng(157);
  // Plane of 3x3 = 9 elements and 37-wide rows keep every normalize call on
  // a tail path.
  const Tensor x4 = random_tensor({2, 6, 3, 3}, rng);
  const Tensor gamma = random_tensor({6}, rng);
  const Tensor beta = random_tensor({6}, rng);
  const Tensor x2 = random_tensor({5, 37}, rng);
  const Tensor lg = random_tensor({37}, rng);
  const Tensor lb = random_tensor({37}, rng);
  Tensor gn_base;
  Tensor ln_base;
  Tensor relu_base;
  for (const auto backend : supported_backends()) {
    ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
    const Tensor gn =
        dn::group_norm(dn::Var(x4), dn::Var(gamma), dn::Var(beta),
                       /*groups=*/3, /*eps=*/1e-5F)
            .value();
    const Tensor ln =
        dn::layer_norm(dn::Var(x2), dn::Var(lg), dn::Var(lb), 1e-5F).value();
    const Tensor re = dn::relu(dn::Var(x2)).value();
    if (gn_base.empty()) {
      gn_base = gn;
      ln_base = ln;
      relu_base = re;
    } else {
      EXPECT_TRUE(bitwise_equal(gn, gn_base))
          << dt::kernel_backend_label(backend);
      EXPECT_TRUE(bitwise_equal(ln, ln_base))
          << dt::kernel_backend_label(backend);
      EXPECT_TRUE(bitwise_equal(re, relu_base))
          << dt::kernel_backend_label(backend);
    }
    // The training path (a graph, so xhat and inv_std are kept) writes
    // the same output bytes as inference.
    const Tensor gn_graph =
        dn::group_norm(dn::Var(x4, /*requires_grad=*/true), dn::Var(gamma),
                       dn::Var(beta), /*groups=*/3, /*eps=*/1e-5F)
            .value();
    EXPECT_TRUE(bitwise_equal(gn_graph, gn_base))
        << dt::kernel_backend_label(backend);
  }
}

TEST(SimdKernels, ForcedScalarDispatchServesTheWholeGemmPath) {
  // Forced-scalar parity on the same build: the portable code path must
  // produce the same bytes the vector backend produces (it is the
  // canonical semantics, not a second implementation).
  BackendGuard guard;
  dc::Rng rng(163);
  const Tensor a = random_tensor({17, 31}, rng);
  const Tensor b = random_tensor({31, 9}, rng);
  ASSERT_TRUE(dt::set_kernel_backend(KernelBackend::kScalar).ok());
  const Tensor scalar_out = dt::matmul(a, b);
  const auto detected = dt::detected_kernel_backend();
  if (detected == KernelBackend::kScalar) {
    GTEST_SKIP() << "host has no vector backend to compare against";
  }
  ASSERT_TRUE(dt::set_kernel_backend(detected).ok());
  EXPECT_TRUE(bitwise_equal(dt::matmul(a, b), scalar_out));
}
