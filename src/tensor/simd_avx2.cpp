// AVX2 + FMA kernel table.
//
// This translation unit is compiled with -mavx2 -mfma (see the dp_simd_avx2
// object library in CMakeLists.txt) even in the portable build, so binaries
// built without -march=native still carry the vector path; runtime CPU
// detection in simd.cpp decides whether it may be selected. Everything here
// reproduces the scalar canonical semantics bit for bit: fused ops use FMA
// instructions exactly where the scalar backend calls std::fma, reductions
// keep the 8-float / 4-double lane split with the fixed reduction tree, and
// tails run the scalar canonical code on the stored lanes (sigmoid and SiLU
// run theirs as one zero-padded vector). Do not introduce
// re-associations here — bitwise backend parity is load-bearing
// (tests/test_simd_kernels.cpp, the sampling golden digest).
#include "tensor/simd.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace diffpattern::tensor::simd {
namespace {

void avx2_axpy(float a, const float* x, float* y, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i,
                     _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), vy));
  }
  for (; i < n; ++i) {
    y[i] = std::fma(a, x[i], y[i]);
  }
}

/// One C row of the register tile. The accumulators are named values, not
/// an `__m256 acc[4][2]` array: GCC 12 at -O3 keeps such an array on the
/// stack and stores both ymm back after every FMA pair.
struct TileRow {
  __m256 lo;
  __m256 hi;
};

inline TileRow load_row(const float* c) {
  return {_mm256_loadu_ps(c), _mm256_loadu_ps(c + 8)};
}

inline void store_row(float* c, TileRow r) {
  _mm256_storeu_ps(c, r.lo);
  _mm256_storeu_ps(c + 8, r.hi);
}

inline void fma_row(const float* a, __m256 b0, __m256 b1, TileRow& r) {
  const __m256 va = _mm256_broadcast_ss(a);
  r.lo = _mm256_fmadd_ps(va, b0, r.lo);
  r.hi = _mm256_fmadd_ps(va, b1, r.hi);
}

/// Kernels::block_has_zero: the tail of each row is one masked load whose
/// padding lanes are masked out of the compare.
bool avx2_block_has_zero(const float* a, std::int64_t lda, std::int64_t k) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const std::int64_t body = k - k % 8;
  __m256 hit = zero;
  for (std::int64_t i = 0; i < kTileRows; ++i) {
    const float* row = a + i * lda;
    for (std::int64_t kk = 0; kk < body; kk += 8) {
      hit = _mm256_or_ps(
          hit, _mm256_cmp_ps(_mm256_loadu_ps(row + kk), zero, _CMP_EQ_OQ));
    }
    if (body < k) {
      const __m256i mask = _mm256_cmpgt_epi32(
          _mm256_set1_epi32(static_cast<int>(k - body)), lanes);
      const __m256 tail = _mm256_maskload_ps(row + body, mask);
      hit = _mm256_or_ps(hit,
                         _mm256_and_ps(_mm256_cmp_ps(tail, zero, _CMP_EQ_OQ),
                                       _mm256_castsi256_ps(mask)));
    }
  }
  return _mm256_movemask_ps(hit) != 0;
}

void avx2_gemm_tile(const float* a, std::int64_t lda, bool a_has_zero,
                    const float* b_lo, const float* b_hi,
                    const std::int64_t* koff, float* c, std::int64_t ldc,
                    std::int64_t k) {
  static_assert(kTileRows == 4 && kTileCols == 16);
  const float* a0 = a;
  const float* a1 = a + lda;
  const float* a2 = a + 2 * lda;
  const float* a3 = a + 3 * lda;
  TileRow r0 = load_row(c);
  TileRow r1 = load_row(c + ldc);
  TileRow r2 = load_row(c + 2 * ldc);
  TileRow r3 = load_row(c + 3 * ldc);
  if (!a_has_zero) {
    // No a_ik to skip: every row takes every FMA, branch-free.
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const __m256 b0 = _mm256_loadu_ps(b_lo + koff[kk]);
      const __m256 b1 = _mm256_loadu_ps(b_hi + koff[kk]);
      fma_row(a0 + kk, b0, b1, r0);
      fma_row(a1 + kk, b0, b1, r1);
      fma_row(a2 + kk, b0, b1, r2);
      fma_row(a3 + kk, b0, b1, r3);
    }
  } else {
    // A zero a_ik (either sign) skips that row's FMAs, as the scalar tile
    // does.
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const __m256 b0 = _mm256_loadu_ps(b_lo + koff[kk]);
      const __m256 b1 = _mm256_loadu_ps(b_hi + koff[kk]);
      if (a0[kk] != 0.0F) {
        fma_row(a0 + kk, b0, b1, r0);
      }
      if (a1[kk] != 0.0F) {
        fma_row(a1 + kk, b0, b1, r1);
      }
      if (a2[kk] != 0.0F) {
        fma_row(a2 + kk, b0, b1, r2);
      }
      if (a3[kk] != 0.0F) {
        fma_row(a3 + kk, b0, b1, r3);
      }
    }
  }
  store_row(c, r0);
  store_row(c + ldc, r1);
  store_row(c + 2 * ldc, r2);
  store_row(c + 3 * ldc, r3);
}

float avx2_dot(const float* x, const float* y, std::int64_t n) {
  __m256 vacc = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vacc = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i),
                           vacc);
  }
  alignas(32) float acc[8];
  _mm256_store_ps(acc, vacc);
  for (const std::int64_t base = i; i < n; ++i) {
    acc[i - base] = std::fma(x[i], y[i], acc[i - base]);
  }
  const float t0 = acc[0] + acc[4];
  const float t1 = acc[1] + acc[5];
  const float t2 = acc[2] + acc[6];
  const float t3 = acc[3] + acc[7];
  return (t0 + t2) + (t1 + t3);
}

/// dot's reduction tree on one accumulator: the hi half onto the lo half
/// gives t0..t3, then (t0 + t2) + (t1 + t3).
inline float reduce_dot_lanes(__m256 v) {
  const __m128 t = _mm_add_ps(_mm256_castps256_ps128(v),
                              _mm256_extractf128_ps(v, 1));
  const __m128 u = _mm_add_ps(t, _mm_movehl_ps(t, t));
  return _mm_cvtss_f32(_mm_add_ss(u, _mm_movehdup_ps(u)));
}

/// One row of the dot tile: the accumulators against B rows 0..2.
struct DotRow {
  __m256 b0;
  __m256 b1;
  __m256 b2;
};

inline void fma_dot_row(__m256 va, __m256 vb0, __m256 vb1, __m256 vb2,
                        DotRow& r) {
  r.b0 = _mm256_fmadd_ps(va, vb0, r.b0);
  r.b1 = _mm256_fmadd_ps(va, vb1, r.b1);
  r.b2 = _mm256_fmadd_ps(va, vb2, r.b2);
}

/// The tail of n % 8 elements: lanes below it take the scalar tail's fma,
/// the lanes above keep their value bit for bit (a blend, so nothing rests
/// on how an fma with zero padding rounds).
inline __m256 fma_tail(__m256 acc, const float* x, const float* y,
                       __m256i mask) {
  const __m256 fused = _mm256_fmadd_ps(_mm256_maskload_ps(x, mask),
                                       _mm256_maskload_ps(y, mask), acc);
  return _mm256_blendv_ps(acc, fused, _mm256_castsi256_ps(mask));
}

inline void store_dot_row(DotRow r, float* c) {
  c[0] = reduce_dot_lanes(r.b0);
  c[1] = reduce_dot_lanes(r.b1);
  c[2] = reduce_dot_lanes(r.b2);
}

void avx2_dot_tile(const float* a, const float* b, std::int64_t n, float* c,
                   std::int64_t ldc) {
  static_assert(kDotRows == 4 && kDotCols == 3);
  const float* a0 = a;
  const float* a1 = a + n;
  const float* a2 = a + 2 * n;
  const float* a3 = a + 3 * n;
  const float* b0 = b;
  const float* b1 = b + n;
  const float* b2 = b + 2 * n;
  const __m256 zero = _mm256_setzero_ps();
  DotRow r0{zero, zero, zero};
  DotRow r1{zero, zero, zero};
  DotRow r2{zero, zero, zero};
  DotRow r3{zero, zero, zero};
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vb0 = _mm256_loadu_ps(b0 + i);
    const __m256 vb1 = _mm256_loadu_ps(b1 + i);
    const __m256 vb2 = _mm256_loadu_ps(b2 + i);
    fma_dot_row(_mm256_loadu_ps(a0 + i), vb0, vb1, vb2, r0);
    fma_dot_row(_mm256_loadu_ps(a1 + i), vb0, vb1, vb2, r1);
    fma_dot_row(_mm256_loadu_ps(a2 + i), vb0, vb1, vb2, r2);
    fma_dot_row(_mm256_loadu_ps(a3 + i), vb0, vb1, vb2, r3);
  }
  if (i < n) {
    const __m256i mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(n - i)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    const auto tail_row = [&](const float* ar, DotRow& r) {
      r.b0 = fma_tail(r.b0, ar + i, b0 + i, mask);
      r.b1 = fma_tail(r.b1, ar + i, b1 + i, mask);
      r.b2 = fma_tail(r.b2, ar + i, b2 + i, mask);
    };
    tail_row(a0, r0);
    tail_row(a1, r1);
    tail_row(a2, r2);
    tail_row(a3, r3);
  }
  store_dot_row(r0, c);
  store_dot_row(r1, c + ldc);
  store_dot_row(r2, c + 2 * ldc);
  store_dot_row(r3, c + 3 * ldc);
}

void avx2_add(float* y, const float* x, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) {
    y[i] += x[i];
  }
}

void avx2_mul(float* y, const float* x, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) {
    y[i] *= x[i];
  }
}

void avx2_scale(float* y, float s, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), vs));
  }
  for (; i < n; ++i) {
    y[i] *= s;
  }
}

void avx2_shift(float* y, const float* x, float s, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(x + i), vs));
  }
  for (; i < n; ++i) {
    y[i] = x[i] + s;
  }
}

void avx2_relu(float* y, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // max_ps(v, 0) = (v > 0) ? v : +0 — NaN and -0 map to +0, matching the
    // scalar canonical ternary.
    _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(y + i), zero));
  }
  for (; i < n; ++i) {
    y[i] = y[i] > 0.0F ? y[i] : 0.0F;
  }
}

float avx2_max(const float* x, std::int64_t n) {
  __m256 vm = _mm256_set1_ps(x[0]);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // max_ps(m, v) = (m > v) ? m : v — the canonical lane combine.
    vm = _mm256_max_ps(vm, _mm256_loadu_ps(x + i));
  }
  alignas(32) float m[8];
  _mm256_store_ps(m, vm);
  for (const std::int64_t base = i; i < n; ++i) {
    float& lane = m[i - base];
    lane = lane > x[i] ? lane : x[i];
  }
  const float t0 = m[0] > m[4] ? m[0] : m[4];
  const float t1 = m[1] > m[5] ? m[1] : m[5];
  const float t2 = m[2] > m[6] ? m[2] : m[6];
  const float t3 = m[3] > m[7] ? m[3] : m[7];
  const float u0 = t0 > t2 ? t0 : t2;
  const float u1 = t1 > t3 ? t1 : t3;
  return u0 > u1 ? u0 : u1;
}

/// The four lanes of `v` plus the scalar tail x[i..n) folded into lanes
/// 0.., reduced as (l0+l2) + (l1+l3); `term` maps a float to its summand.
template <typename Term>
double fold_lanes(__m256d v, const float* x, std::int64_t i, std::int64_t n,
                  Term term) {
  alignas(32) double acc[4];
  _mm256_store_pd(acc, v);
  for (const std::int64_t base = i; i < n; ++i) {
    acc[i - base] += term(x[i]);
  }
  return (acc[0] + acc[2]) + (acc[1] + acc[3]);
}

/// Kernels::sum and sumsq_centered over R rows at once: one __m256d add
/// chain per row, interleaved so the adds of different rows overlap. Each
/// row's lanes see the same adds in the same order as alone. Plain add and
/// mul (two roundings) — the canonical ops here are NOT fused.
template <int R, bool Centered>
void avx2_moment_rows(const float* x, const double* mean, std::int64_t n,
                      double* out) {
  __m256d vmean[R];
  __m256d vacc[R];
  for (int r = 0; r < R; ++r) {
    vmean[r] = _mm256_set1_pd(Centered ? mean[r] : 0.0);
    vacc[r] = _mm256_setzero_pd();
  }
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int r = 0; r < R; ++r) {
      const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(x + r * n + i));
      if constexpr (Centered) {
        const __m256d d = _mm256_sub_pd(v, vmean[r]);
        vacc[r] = _mm256_add_pd(vacc[r], _mm256_mul_pd(d, d));
      } else {
        vacc[r] = _mm256_add_pd(vacc[r], v);
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    out[r] = fold_lanes(vacc[r], x + r * n, i, n, [&](float f) {
      if constexpr (Centered) {
        const double d = static_cast<double>(f) - mean[r];
        return d * d;
      } else {
        return static_cast<double>(f);
      }
    });
  }
}

template <bool Centered>
void avx2_moments(const float* x, const double* mean, std::int64_t n,
                  std::int64_t rows, double* out) {
  std::int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    avx2_moment_rows<4, Centered>(x + r * n, mean + (Centered ? r : 0), n,
                                  out + r);
  }
  for (; r < rows; ++r) {
    avx2_moment_rows<1, Centered>(x + r * n, mean + (Centered ? r : 0), n,
                                  out + r);
  }
}

void avx2_sum(const float* x, std::int64_t n, std::int64_t rows,
              double* out) {
  avx2_moments<false>(x, nullptr, n, rows, out);
}

void avx2_sumsq_centered(const float* x, const double* mean, std::int64_t n,
                         std::int64_t rows, double* out) {
  avx2_moments<true>(x, mean, n, rows, out);
}

void avx2_normalize_affine(const float* x, float mean, float istd,
                           float gamma, float beta, float* xhat, float* y,
                           std::int64_t n) {
  const __m256 vmean = _mm256_set1_ps(mean);
  const __m256 vistd = _mm256_set1_ps(istd);
  const __m256 vgamma = _mm256_set1_ps(gamma);
  const __m256 vbeta = _mm256_set1_ps(beta);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xn = _mm256_mul_ps(
        _mm256_sub_ps(_mm256_loadu_ps(x + i), vmean), vistd);
    if (xhat != nullptr) {
      _mm256_storeu_ps(xhat + i, xn);
    }
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(xn, vgamma, vbeta));
  }
  for (; i < n; ++i) {
    const float xn = (x[i] - mean) * istd;
    if (xhat != nullptr) {
      xhat[i] = xn;
    }
    y[i] = std::fma(xn, gamma, beta);
  }
}

void avx2_normalize_affine_rows(const float* x, float mean, float istd,
                                const float* gamma, const float* beta,
                                float* xhat, float* y, std::int64_t n) {
  const __m256 vmean = _mm256_set1_ps(mean);
  const __m256 vistd = _mm256_set1_ps(istd);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xn = _mm256_mul_ps(
        _mm256_sub_ps(_mm256_loadu_ps(x + i), vmean), vistd);
    _mm256_storeu_ps(xhat + i, xn);
    _mm256_storeu_ps(y + i,
                     _mm256_fmadd_ps(xn, _mm256_loadu_ps(gamma + i),
                                     _mm256_loadu_ps(beta + i)));
  }
  for (; i < n; ++i) {
    const float xn = (x[i] - mean) * istd;
    xhat[i] = xn;
    y[i] = std::fma(xn, gamma[i], beta[i]);
  }
}

/// Kernels::sigmoid on 8 lanes: the scalar canonical steps lane by lane.
__m256 avx2_sigmoid8(__m256 v) {
  const __m256 one = _mm256_set1_ps(1.0F);
  const __m256 lo = _mm256_set1_ps(detail::kExpLo);
  const __m256 t = _mm256_or_ps(v, _mm256_set1_ps(-0.0F));  // -|v|
  // Lanes below the normal range (and NaN lanes) are masked to +0 below;
  // the clamp only keeps their integer conversion in range.
  const __m256 tc = _mm256_max_ps(t, lo);
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(tc, _mm256_set1_ps(detail::kLog2e)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fmadd_ps(n, _mm256_set1_ps(-detail::kLn2Hi), tc);
  r = _mm256_fmadd_ps(n, _mm256_set1_ps(-detail::kLn2Lo), r);
  __m256 p = _mm256_set1_ps(detail::kExpPoly[0]);
  for (int j = 1; j < detail::kExpPolyTerms; ++j) {
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(detail::kExpPoly[j]));
  }
  const __m256 y =
      _mm256_add_ps(_mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r), one);
  const __m256i bits = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23);
  const __m256 e = _mm256_and_ps(_mm256_mul_ps(y, _mm256_castsi256_ps(bits)),
                                 _mm256_cmp_ps(t, lo, _CMP_GE_OQ));
  const __m256 num = _mm256_blendv_ps(
      e, one, _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GE_OQ));
  const __m256 s = _mm256_div_ps(num, _mm256_add_ps(one, e));
  return _mm256_blendv_ps(s, v, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
}

/// y = op(x) over 8-lane vectors; the tail runs one zero-padded vector.
template <typename Op>
void avx2_map(float* y, const float* x, std::int64_t n, Op op) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, op(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    alignas(32) float buf[8] = {};
    std::copy(x + i, x + n, buf);
    _mm256_store_ps(buf, op(_mm256_load_ps(buf)));
    std::copy(buf, buf + (n - i), y + i);
  }
}

void avx2_sigmoid(float* y, const float* x, std::int64_t n) {
  avx2_map(y, x, n, avx2_sigmoid8);
}

void avx2_silu(float* y, const float* x, std::int64_t n) {
  avx2_map(y, x, n,
           [](__m256 v) { return _mm256_mul_ps(v, avx2_sigmoid8(v)); });
}

constexpr Kernels kAvx2Table = {
    .backend = KernelBackend::kAvx2,
    .axpy = avx2_axpy,
    .gemm_tile = avx2_gemm_tile,
    .block_has_zero = avx2_block_has_zero,
    .dot = avx2_dot,
    .dot_tile = avx2_dot_tile,
    .add = avx2_add,
    .mul = avx2_mul,
    .scale = avx2_scale,
    .shift = avx2_shift,
    .relu = avx2_relu,
    .max = avx2_max,
    .sum = avx2_sum,
    .sumsq_centered = avx2_sumsq_centered,
    .normalize_affine = avx2_normalize_affine,
    .normalize_affine_rows = avx2_normalize_affine_rows,
    .sigmoid = avx2_sigmoid,
    .silu = avx2_silu,
};

}  // namespace

namespace detail {
const Kernels* avx2_table() { return &kAvx2Table; }
}  // namespace detail

}  // namespace diffpattern::tensor::simd

#else  // !(__AVX2__ && __FMA__)

namespace diffpattern::tensor::simd::detail {
// Compiled without AVX2+FMA codegen (non-x86 target, or a toolchain that
// rejects -mavx2 -mfma): the backend is simply absent at runtime.
const Kernels* avx2_table() { return nullptr; }
}  // namespace diffpattern::tensor::simd::detail

#endif
