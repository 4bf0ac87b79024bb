#include "tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>

namespace diffpattern::tensor {

namespace simd {
namespace {

// ---- scalar backend: the canonical semantics ------------------------------
//
// Every loop below is written in the exact lane structure the vector
// backends use (8 float lanes / 4 double lanes, tails folded into the low
// lanes, fixed reduction trees), with std::fma wherever the canonical op is
// fused. The vector implementations then reproduce these bits instruction
// for instruction; -ffp-contract=off (set project-wide) keeps the compiler
// from fusing or splitting anything on its own.

void scalar_axpy(float a, const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = std::fma(a, x[i], y[i]);
  }
}

/// The canonical tile chain, one C row at a time: k ascending, a zero a_ik
/// (either sign) skipped, so the zero flag is not needed. Each half of the
/// row lives in its own local array, matching the two halves of B, so the
/// compiler may keep each in one vector register across K (with one array
/// for both, GCC built each B row element by element).
void scalar_gemm_tile(const float* a, std::int64_t lda, bool /*a_has_zero*/,
                      const float* b_lo, const float* b_hi,
                      const std::int64_t* koff, float* c, std::int64_t ldc,
                      std::int64_t k) {
  for (std::int64_t i = 0; i < kTileRows; ++i) {
    float* crow = c + i * ldc;
    float acc_lo[kTileHalf];
    float acc_hi[kTileHalf];
    std::copy(crow, crow + kTileHalf, acc_lo);
    std::copy(crow + kTileHalf, crow + kTileCols, acc_hi);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = a[i * lda + kk];
      if (av == 0.0F) {
        continue;
      }
      const float* lo = b_lo + koff[kk];
      const float* hi = b_hi + koff[kk];
      for (std::int64_t j = 0; j < kTileHalf; ++j) {
        acc_lo[j] = std::fma(av, lo[j], acc_lo[j]);
      }
      for (std::int64_t j = 0; j < kTileHalf; ++j) {
        acc_hi[j] = std::fma(av, hi[j], acc_hi[j]);
      }
    }
    std::copy(acc_lo, acc_lo + kTileHalf, crow);
    std::copy(acc_hi, acc_hi + kTileHalf, crow + kTileHalf);
  }
}

bool scalar_block_has_zero(const float* a, std::int64_t lda, std::int64_t k) {
  bool hit = false;
  for (std::int64_t i = 0; i < kTileRows; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      hit |= a[i * lda + kk] == 0.0F;
    }
  }
  return hit;
}

float scalar_dot(const float* x, const float* y, std::int64_t n) {
  float acc[8] = {0.0F, 0.0F, 0.0F, 0.0F, 0.0F, 0.0F, 0.0F, 0.0F};
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int l = 0; l < 8; ++l) {
      acc[l] = std::fma(x[i + l], y[i + l], acc[l]);
    }
  }
  for (const std::int64_t base = i; i < n; ++i) {
    acc[i - base] = std::fma(x[i], y[i], acc[i - base]);
  }
  const float t0 = acc[0] + acc[4];
  const float t1 = acc[1] + acc[5];
  const float t2 = acc[2] + acc[6];
  const float t3 = acc[3] + acc[7];
  return (t0 + t2) + (t1 + t3);
}

void scalar_dot_tile(const float* a, const float* b, std::int64_t n,
                     float* c, std::int64_t ldc) {
  for (std::int64_t i = 0; i < kDotRows; ++i) {
    for (std::int64_t j = 0; j < kDotCols; ++j) {
      c[i * ldc + j] = scalar_dot(a + i * n, b + j * n, n);
    }
  }
}

void scalar_add(float* y, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] += x[i];
  }
}

void scalar_mul(float* y, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] *= x[i];
  }
}

void scalar_scale(float* y, float s, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] *= s;
  }
}

void scalar_shift(float* y, const float* x, float s, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = x[i] + s;
  }
}

void scalar_relu(float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = y[i] > 0.0F ? y[i] : 0.0F;
  }
}

float scalar_max(const float* x, std::int64_t n) {
  float m[8];
  for (int l = 0; l < 8; ++l) {
    m[l] = x[0];
  }
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int l = 0; l < 8; ++l) {
      m[l] = m[l] > x[i + l] ? m[l] : x[i + l];
    }
  }
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

void scalar_sum(const float* x, std::int64_t n, std::int64_t rows,
                double* out) {
  for (std::int64_t r = 0; r < rows; ++r, x += n) {
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    std::int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
      for (int l = 0; l < 4; ++l) {
        acc[l] += static_cast<double>(x[i + l]);
      }
    }
    for (const std::int64_t base = i; i < n; ++i) {
      acc[i - base] += static_cast<double>(x[i]);
    }
    out[r] = (acc[0] + acc[2]) + (acc[1] + acc[3]);
  }
}

void scalar_sumsq_centered(const float* x, const double* mean,
                           std::int64_t n, std::int64_t rows, double* out) {
  for (std::int64_t r = 0; r < rows; ++r, x += n) {
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    std::int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
      for (int l = 0; l < 4; ++l) {
        const double d = static_cast<double>(x[i + l]) - mean[r];
        acc[l] += d * d;
      }
    }
    for (const std::int64_t base = i; i < n; ++i) {
      const double d = static_cast<double>(x[i]) - mean[r];
      acc[i - base] += d * d;
    }
    out[r] = (acc[0] + acc[2]) + (acc[1] + acc[3]);
  }
}

void scalar_normalize_affine(const float* x, float mean, float istd,
                             float gamma, float beta, float* xhat, float* y,
                             std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float xn = (x[i] - mean) * istd;
    if (xhat != nullptr) {
      xhat[i] = xn;
    }
    y[i] = std::fma(xn, gamma, beta);
  }
}

void scalar_normalize_affine_rows(const float* x, float mean, float istd,
                                  const float* gamma, const float* beta,
                                  float* xhat, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float xn = (x[i] - mean) * istd;
    xhat[i] = xn;
    y[i] = std::fma(xn, gamma[i], beta[i]);
  }
}

/// The canonical exp of t <= 0 (Kernels::sigmoid documents the steps).
float canonical_exp_nonpos(float t) {
  if (!(t >= detail::kExpLo)) {
    return 0.0F;  // Below the normal range.
  }
  const float n = std::rint(t * detail::kLog2e);
  float r = std::fma(n, -detail::kLn2Hi, t);
  r = std::fma(n, -detail::kLn2Lo, r);
  float p = detail::kExpPoly[0];
  for (int j = 1; j < detail::kExpPolyTerms; ++j) {
    p = std::fma(p, r, detail::kExpPoly[j]);
  }
  const float y = std::fma(p, r * r, r) + 1.0F;
  return y * std::bit_cast<float>((static_cast<std::int32_t>(n) + 127) << 23);
}

float canonical_sigmoid(float v) {
  if (std::isnan(v)) {
    return v;
  }
  const float e = canonical_exp_nonpos(-std::fabs(v));
  return (v >= 0.0F ? 1.0F : e) / (1.0F + e);
}

void scalar_sigmoid(float* y, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = canonical_sigmoid(x[i]);
  }
}

void scalar_silu(float* y, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = x[i] * canonical_sigmoid(x[i]);
  }
}

constexpr Kernels kScalarTable = {
    .backend = KernelBackend::kScalar,
    .axpy = scalar_axpy,
    .gemm_tile = scalar_gemm_tile,
    .block_has_zero = scalar_block_has_zero,
    .dot = scalar_dot,
    .dot_tile = scalar_dot_tile,
    .add = scalar_add,
    .mul = scalar_mul,
    .scale = scalar_scale,
    .shift = scalar_shift,
    .relu = scalar_relu,
    .max = scalar_max,
    .sum = scalar_sum,
    .sumsq_centered = scalar_sumsq_centered,
    .normalize_affine = scalar_normalize_affine,
    .normalize_affine_rows = scalar_normalize_affine_rows,
    .sigmoid = scalar_sigmoid,
    .silu = scalar_silu,
};

// ---- dispatch --------------------------------------------------------------

std::atomic<const Kernels*> g_active{nullptr};

/// Initial backend: DIFFPATTERN_KERNEL_BACKEND when set to a name the host
/// supports (following the DIFFPATTERN_THREADS precedent, malformed or
/// unsupported values are ignored), else the best detected backend.
const Kernels* resolve_initial() {
  if (const char* env = std::getenv("DIFFPATTERN_KERNEL_BACKEND")) {
    const auto parsed = parse_kernel_backend(env);
    if (parsed.ok()) {
      if (const Kernels* table = table_for(*parsed)) {
        return table;
      }
    }
  }
  return table_for(detected_kernel_backend());
}

}  // namespace

const Kernels& active() {
  const Kernels* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    // Benign race: every initializer computes the same table; first CAS
    // wins and the others adopt it.
    const Kernels* resolved = resolve_initial();
    const Kernels* expected = nullptr;
    g_active.compare_exchange_strong(expected, resolved,
                                     std::memory_order_acq_rel);
    table = g_active.load(std::memory_order_acquire);
  }
  return *table;
}

const Kernels* table_for(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return &kScalarTable;
    case KernelBackend::kAvx2:
      return kernel_backend_supported(KernelBackend::kAvx2)
                 ? detail::avx2_table()
                 : nullptr;
  }
  return nullptr;
}

}  // namespace simd

const char* kernel_backend_label(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

KernelBackend kernel_backend() { return simd::active().backend; }

std::string kernel_backend_name() {
  return kernel_backend_label(kernel_backend());
}

bool kernel_backend_supported(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return true;
    case KernelBackend::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return simd::detail::avx2_table() != nullptr &&
             __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
  }
  return false;
}

KernelBackend detected_kernel_backend() {
  if (kernel_backend_supported(KernelBackend::kAvx2)) {
    return KernelBackend::kAvx2;
  }
  return KernelBackend::kScalar;
}

std::vector<std::string> supported_kernel_backend_names() {
  std::vector<std::string> names;
  for (const auto backend : {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    if (kernel_backend_supported(backend)) {
      names.emplace_back(kernel_backend_label(backend));
    }
  }
  return names;
}

common::Result<KernelBackend> parse_kernel_backend(const std::string& name) {
  if (name == "scalar") {
    return KernelBackend::kScalar;
  }
  if (name == "avx2") {
    return KernelBackend::kAvx2;
  }
  if (name == "auto") {
    return detected_kernel_backend();
  }
  return common::Status::InvalidArgument(
      "unknown kernel backend '" + name +
      "' (expected scalar|avx2|auto)");
}

common::Status set_kernel_backend(KernelBackend backend) {
  const simd::Kernels* table = simd::table_for(backend);
  if (table == nullptr) {
    std::string supported;
    for (const auto& name : supported_kernel_backend_names()) {
      supported += supported.empty() ? name : ", " + name;
    }
    return common::Status::InvalidArgument(
        std::string("kernel backend '") + kernel_backend_label(backend) +
        "' is not supported on this host (supported: " + supported + ")");
  }
  simd::g_active.store(table, std::memory_order_release);
  return common::Status::Ok();
}

common::Status set_kernel_backend_name(const std::string& name) {
  auto parsed = parse_kernel_backend(name);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return set_kernel_backend(*parsed);
}

}  // namespace diffpattern::tensor
