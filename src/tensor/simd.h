// SIMD kernel tier: runtime-dispatched vectorized inner loops.
//
// The blocked/parallel kernels in tensor_ops.cpp and the NN forward loops in
// nn/ops.cpp call through the per-backend kernel table returned by
// simd::active(). Two backends exist:
//
//   * scalar — portable C++, runs everywhere. This is also the *canonical
//     semantics*: every kernel's accumulation order and rounding (fused
//     multiply-add via std::fma, lane-split reductions with a fixed
//     reduction tree) is defined by the scalar implementation.
//   * avx2   — AVX2 + FMA (x86-64), compiled into a separate object library
//     with -mavx2 -mfma so the portable build still carries it; selected at
//     runtime only when the CPU reports both features.
//
// Any other host (AArch64 included) runs the scalar table. A further vector
// table belongs here only once a host of its ISA compiles it, passes the
// parity suites and measures it.
//
// Determinism contract: the AVX2 backend implements the scalar canonical
// order *exactly* — same per-element fused operations, same lane-split
// partial accumulators, same reduction tree — so results are bitwise
// identical across backends, thread counts, and runs (IEEE-754 fma is
// correctly rounded whether it comes from vfmadd231ps or libm fmaf). The
// test-support tensor::reference kernels (tests/support/reference_kernels.h)
// keep the historic mul-then-add rounding and therefore agree only within
// a small ULP bound; tests/test_simd_kernels.cpp asserts both relations.
// The whole library is compiled with -ffp-contract=off so the compiler
// cannot re-fuse (or un-fuse) any of this behind our back. Sigmoid and
// SiLU use no libm approximation: their exp is the table's own fma
// polynomial, so their bits do not depend on the host's libm either.
//
// Dispatch: the process-wide backend starts at DIFFPATTERN_KERNEL_BACKEND
// (scalar|avx2|auto; malformed or host-unsupported values are ignored)
// else the best backend the host supports. set_kernel_backend* follows the
// set_global_compute_threads precedent: unknown names and ISAs the host
// cannot run answer INVALID_ARGUMENT instead of aborting or silently
// falling back.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace diffpattern::tensor {

enum class KernelBackend {
  kScalar = 0,
  kAvx2 = 1,
};

/// "scalar" or "avx2".
const char* kernel_backend_label(KernelBackend backend);

/// Backend the current dispatch choice routes to.
KernelBackend kernel_backend();

/// kernel_backend_label(kernel_backend()).
std::string kernel_backend_name();

/// Best backend this host can execute (what "auto" resolves to).
KernelBackend detected_kernel_backend();

/// True when the host CPU (and this binary) can run `backend`.
bool kernel_backend_supported(KernelBackend backend);

/// Labels of every backend the host supports ("scalar" is always present).
std::vector<std::string> supported_kernel_backend_names();

/// Maps "scalar" / "avx2" / "auto" onto a backend ("auto" resolves
/// to detected_kernel_backend()). Unknown names answer INVALID_ARGUMENT.
common::Result<KernelBackend> parse_kernel_backend(const std::string& name);

/// Switches the process-wide dispatch. INVALID_ARGUMENT when the host does
/// not support the requested backend. Like set_global_compute_threads, this
/// is a between-requests configuration knob: kernels already running keep
/// the table they grabbed.
common::Status set_kernel_backend(KernelBackend backend);

/// parse_kernel_backend + set_kernel_backend in one call (the CLI
/// --kernel-backend entry point).
common::Status set_kernel_backend_name(const std::string& name);

namespace simd {

/// Register-tile shape of Kernels::gemm_tile: rows of A (and C) by columns
/// of B (and C). The tile reads each row of B as two halves of kTileHalf
/// columns.
inline constexpr std::int64_t kTileRows = 4;
inline constexpr std::int64_t kTileCols = 16;
inline constexpr std::int64_t kTileHalf = kTileCols / 2;

/// Dot-tile shape of Kernels::dot_tile: rows of A by rows of B.
inline constexpr std::int64_t kDotRows = 4;
inline constexpr std::int64_t kDotCols = 3;

/// Per-backend kernel table. Every function implements the canonical
/// semantics documented at the top of this header; `n` is an element count
/// and all pointers may overlap only where a parameter is documented as
/// in-place capable.
struct Kernels {
  KernelBackend backend;

  /// y[i] = fma(a, x[i], y[i]) for i in [0,n) — the GEMM axpy micro-kernel.
  void (*axpy)(float a, const float* x, float* y, std::int64_t n);

  /// The GEMM register tile: C(+)= A·B for kTileRows x kTileCols elements
  /// of C (row strides lda, ldc; A is kTileRows x k). Row kk of B is two
  /// halves read through the offset table: columns 0..7 at b_lo + koff[kk],
  /// columns 8..15 at b_hi + koff[kk]. A packed panel passes b_hi = b_lo +
  /// 8 and koff[kk] = kk * ldb; the convolution passes two runs of its
  /// zero-bordered input. Every element keeps the axpy chain
  /// c = fma(a_ik, b_kj, c), k ascending, skipping a_ik == 0 (either sign)
  /// per row, so a tiled product is bitwise an axpy-row product — including
  /// -0 accumulators and non-finite B. `a_has_zero` is block_has_zero of
  /// this A block, computed once per product by the caller: false promises
  /// a zero-free block, and the AVX2 tile then runs a branch-free K loop;
  /// true is always correct. The AVX2 tile holds its accumulators as named
  /// __m256 values (an __m256 array got spilled to the stack after every
  /// FMA pair); the scalar tile tests every a_ik.
  void (*gemm_tile)(const float* a, std::int64_t lda, bool a_has_zero,
                    const float* b_lo, const float* b_hi,
                    const std::int64_t* koff, float* c, std::int64_t ldc,
                    std::int64_t k);

  /// True when the kTileRows x k block of A (row stride lda) holds a zero
  /// of either sign: the `a_has_zero` flag of gemm_tile.
  bool (*block_has_zero)(const float* a, std::int64_t lda, std::int64_t k);

  /// Canonical lane-split fused dot product: 8 partial accumulators
  /// (lane l owns i ≡ l mod 8 over full 8-blocks, the tail folds into
  /// lanes 0..), reduced as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) —
  /// matching one 256-bit FMA register reduced hi-onto-lo.
  float (*dot)(const float* x, const float* y, std::int64_t n);

  /// A tile of dots that share their loads: c[i * ldc + j] = dot(a + i * n,
  /// b + j * n, n) for i < kDotRows, j < kDotCols (rows of n floats, packed
  /// at stride n). Every output is bitwise `dot`'s: its own 8-lane
  /// accumulator, the same tail into lanes 0.., the same reduction tree.
  /// The AVX2 tile keeps the twelve accumulators in registers.
  void (*dot_tile)(const float* a, const float* b, std::int64_t n, float* c,
                   std::int64_t ldc);

  /// y[i] += x[i].
  void (*add)(float* y, const float* x, std::int64_t n);
  /// y[i] *= x[i].
  void (*mul)(float* y, const float* x, std::int64_t n);
  /// y[i] *= s.
  void (*scale)(float* y, float s, std::int64_t n);
  /// y[i] = x[i] + s (y == x allowed: in-place bias add).
  void (*shift)(float* y, const float* x, float s, std::int64_t n);
  /// y[i] = y[i] > 0 ? y[i] : 0 (NaN and -0 map to +0, like vmaxps).
  void (*relu)(float* y, std::int64_t n);

  /// Canonical lane-split max (8 lanes seeded with x[0], combined with
  /// (m > v ? m : v), reduced with the dot tree). n must be >= 1. Exact
  /// for every non-NaN input.
  float (*max)(const float* x, std::int64_t n);

  /// Canonical 4-lane double-precision sums of `rows` consecutive rows of
  /// n floats: out[r] sums x[r*n .. (r+1)*n) (lane l owns i ≡ l mod 4
  /// over full 4-blocks, tail folds into lanes 0..; reduced as
  /// (l0+l2) + (l1+l3)) — the group/layer-norm mean reduction. Each row
  /// keeps its own order, so out[r] does not depend on `rows`; the AVX2
  /// table runs four rows' add chains interleaved.
  void (*sum)(const float* x, std::int64_t n, std::int64_t rows,
              double* out);

  /// Same rows and lane structure over d = double(x[i]) - mean[r],
  /// accumulating d*d — the group/layer-norm variance reduction.
  void (*sumsq_centered)(const float* x, const double* mean, std::int64_t n,
                         std::int64_t rows, double* out);

  /// xn = (x[i] - mean) * istd; xhat[i] = xn; y[i] = fma(xn, gamma, beta).
  /// Scalar gamma/beta: one group-norm channel plane per call. xhat may be
  /// nullptr (inference keeps no normalized input): then only y is written.
  void (*normalize_affine)(const float* x, float mean, float istd,
                           float gamma, float beta, float* xhat, float* y,
                           std::int64_t n);

  /// Row variant with per-element gamma/beta (layer norm): y[i] =
  /// fma((x[i] - mean) * istd, gamma[i], beta[i]), xhat recorded likewise.
  void (*normalize_affine_rows)(const float* x, float mean, float istd,
                                const float* gamma, const float* beta,
                                float* xhat, float* y, std::int64_t n);

  /// y[i] = sigmoid(x[i]), y == x allowed. With e = exp(-|x|) by the
  /// canonical exp below, y = (x >= 0 ? 1 : e) / (1 + e), one IEEE
  /// division; a NaN x is returned unchanged. Every step is an exactly
  /// rounded IEEE operation (no libm approximation), so the bits are the
  /// table's, not the host's.
  ///
  /// Canonical exp of t <= 0 (Cephes expf): t below kExpLo (where exp
  /// leaves the normal range) gives +0; otherwise n = t * kLog2e rounded
  /// to nearest even, r = fma(n, -kLn2Lo, fma(n, -kLn2Hi, t)), p = the
  /// kExpPoly Horner chain in fma over r, and exp(t) = (fma(p, r*r, r) + 1)
  /// * 2^n.
  void (*sigmoid)(float* y, const float* x, std::int64_t n);
  /// y[i] = x[i] * sigmoid(x[i]) (SiLU) with the sigmoid above, y == x
  /// allowed.
  void (*silu)(float* y, const float* x, std::int64_t n);
};

namespace detail {
/// Constants of the canonical exp under Kernels::sigmoid and silu.
inline constexpr float kExpLo = -87.33654F;  // ≈ ln(FLT_MIN).
inline constexpr float kLog2e = 1.44269504088896341F;
inline constexpr float kLn2Hi = 0.693359375F;  // Exact in 9 bits.
inline constexpr float kLn2Lo = -2.12194440e-4F;
inline constexpr int kExpPolyTerms = 6;
inline constexpr float kExpPoly[kExpPolyTerms] = {
    1.9875691500e-4F, 1.3981999507e-3F, 8.3334519073e-3F,
    4.1665795894e-2F, 1.6666665459e-1F, 5.0000001201e-1F};
}  // namespace detail

/// Table for the active backend (one relaxed atomic load — grab the
/// reference once per tensor op, not per element).
const Kernels& active();

/// Table for a specific backend, or nullptr when this host/binary cannot
/// run it. table_for(kScalar) never returns nullptr.
const Kernels* table_for(KernelBackend backend);

namespace detail {
/// Defined in simd_avx2.cpp (compiled with -mavx2 -mfma when the toolchain
/// targets x86); returns nullptr when the path is compiled out.
const Kernels* avx2_table();
}  // namespace detail

}  // namespace simd
}  // namespace diffpattern::tensor
