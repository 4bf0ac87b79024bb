// Kernel microbench: the runtime-dispatched SIMD backend vs forced-scalar
// dispatch, and the parallel pool vs single-thread execution, on the
// kernels that dominate the reverse-diffusion hot path — GEMM, the GEMM
// register tile alone (the U-Net's level-1 conv shape, in GFLOP/s), the
// dot tile under matmul_transpose_b (the conv weight gradient of training),
// convolution (a 32x32 batch and the U-Net's 8x8 decoder shape), four conv
// shapes of the benchmark U-Net at batch 8 next to the same product on a
// resident panel (GFLOP/s and the conv's non-GEMM share), row softmax, the
// group-norm moment kernels (us per 64 groups) and SiLU (reported in ns per
// element).
//
// For every kernel the bench (a) verifies the backend-parity contract —
// forced-scalar and vector dispatch produce bitwise-identical results — and
// checks the dispatched result against the retained naive reference within
// a small ULP/absolute envelope (the references round mul and add
// separately; the canonical kernels fuse), then (b) reports best-of-reps
// wall times per backend at one thread (isolating the per-core
// vectorization win) plus the vector backend at the ambient pool size.
// Results land in bench_out/BENCH_kernels.json; on a host with no vector
// backend the "simd" rows repeat the scalar backend and the speedup is ~1.0
// by construction, so the exit code gates only on correctness.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/compute_pool.h"
#include "common/float_compare.h"
#include "common/rng.h"
#include "common/timer.h"
#include "nn/autograd.h"
#include "nn/ops.h"
#include "support/reference_kernels.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"

namespace dp = diffpattern;
using dp::tensor::KernelBackend;
using dp::tensor::Tensor;

namespace {

Tensor random_tensor(dp::tensor::Shape shape, dp::common::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal());
  }
  return t;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Fused-vs-split rounding envelope against the naive reference. The drift
/// grows with the accumulation length, so the envelope scales with the
/// inner dimension `k` (test_simd_kernels.cpp owns the tight small-k
/// bounds; this gate catches real kernel bugs, which land orders of
/// magnitude outside it).
bool ulp_close(const Tensor& a, const Tensor& b, std::int64_t k) {
  const std::int64_t max_ulp = 4 * k;
  const float atol = 4e-7F * static_cast<float>(k);
  if (!a.same_shape(b)) {
    return false;
  }
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (dp::common::ulp_distance(a[i], b[i]) > max_ulp &&
        std::abs(a[i] - b[i]) > atol) {
      return false;
    }
  }
  return true;
}

template <typename Fn>
double best_of_seconds(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    dp::common::Timer timer;
    fn();
    const double s = timer.seconds();
    if (r == 0 || s < best) {
      best = s;
    }
  }
  return best;
}

void set_threads_or_die(std::int64_t threads) {
  if (!dp::common::set_global_compute_threads(threads).ok()) {
    std::cerr << "[bench] failed to size compute pool to " << threads << "\n";
    std::abort();
  }
}

void set_backend_or_die(KernelBackend backend) {
  const auto status = dp::tensor::set_kernel_backend(backend);
  if (!status.ok()) {
    std::cerr << "[bench] " << status.to_string() << "\n";
    std::abort();
  }
}

/// Per-kernel measurement: times under forced-scalar and best-backend
/// dispatch at 1 thread, plus best-backend at the ambient pool size, and
/// verifies bitwise backend parity + reference agreement.
struct KernelReport {
  double scalar_ms_1t = 0.0;
  double simd_ms_1t = 0.0;
  double simd_ms_nt = 0.0;
  bool parity_ok = false;
  bool reference_ok = false;

  double simd_speedup() const {
    return simd_ms_1t > 0.0 ? scalar_ms_1t / simd_ms_1t : 0.0;
  }
};

template <typename Run>
KernelReport measure(KernelBackend best, std::int64_t ambient, int reps,
                     const Tensor& reference, std::int64_t inner_dim,
                     Run&& run) {
  KernelReport report;
  set_threads_or_die(1);
  set_backend_or_die(KernelBackend::kScalar);
  const Tensor scalar_out = run();
  report.scalar_ms_1t = best_of_seconds(reps, [&] { run(); }) * 1000.0;
  set_backend_or_die(best);
  const Tensor simd_out = run();
  report.simd_ms_1t = best_of_seconds(reps, [&] { run(); }) * 1000.0;
  set_threads_or_die(ambient);
  const Tensor threaded_out = run();
  report.simd_ms_nt = best_of_seconds(reps, [&] { run(); }) * 1000.0;
  report.parity_ok =
      bitwise_equal(scalar_out, simd_out) && bitwise_equal(simd_out, threaded_out);
  report.reference_ok = ulp_close(simd_out, reference, inner_dim);
  return report;
}

}  // namespace

int main() {
  dp::bench::print_header(
      "Kernel microbench: SIMD dispatch vs scalar, parallel vs single thread");
  const auto ambient = dp::common::default_thread_count();
  const auto best = dp::tensor::detected_kernel_backend();
  std::cout << "ambient compute pool: " << ambient << " thread(s)\n"
            << "detected kernel backend: "
            << dp::tensor::kernel_backend_label(best) << "\n";
  constexpr int kReps = 3;
  dp::common::Rng rng(2023);

  // ---- GEMM: C[256,512] = A[256,384] * B[384,512] -------------------------
  const Tensor a = random_tensor({256, 384}, rng);
  const Tensor b = random_tensor({384, 512}, rng);
  const auto mm = measure(best, ambient, kReps,
                          dp::tensor::reference::matmul(a, b),
                          /*inner_dim=*/384,
                          [&] { return dp::tensor::matmul(a, b); });

  // ---- GEMM register tile: C[32,16] += A[32,288] * B[288,16] -------------
  // The U-Net's level-1 conv product per 16-column strip (32 output
  // channels, K = 32 * 3 * 3) through gemm_accumulate: 8 tile calls on a
  // zero-free A block. One timed run repeats the product kTileProducts
  // times, each into a fresh zero C.
  constexpr std::int64_t kTileM = 32;
  constexpr std::int64_t kTileK = 288;
  constexpr std::int64_t kTileN = dp::tensor::simd::kTileCols;
  constexpr int kTileProducts = 2000;
  const Tensor ta = random_tensor({kTileM, kTileK}, rng);
  const Tensor tb = random_tensor({kTileK, kTileN}, rng);
  const auto tile = measure(
      best, ambient, kReps, dp::tensor::reference::matmul(ta, tb),
      /*inner_dim=*/kTileK, [&] {
        Tensor tc({kTileM, kTileN});
        for (int r = 0; r < kTileProducts; ++r) {
          tc.fill(0.0F);
          dp::tensor::gemm_accumulate(ta.data(), kTileK, tb.data(), kTileN,
                                      tc.data(), kTileN, kTileM, kTileN,
                                      kTileK);
        }
        return tc;
      });
  const auto gflops = [&](double ms) {
    return 2.0 * kTileM * kTileK * kTileN * kTileProducts / (ms * 1e6);
  };

  // ---- dot tile: gW[16,144] = gY[16,512] * cols[144,512]^T ---------------
  // The benchmark U-Net's level-0 conv weight gradient at batch 8, through
  // matmul_transpose_b's dot tiles. Besides backend and pool parity, every
  // element must be bitwise the canonical dot of its two rows.
  constexpr std::int64_t kDotM = 16;
  constexpr std::int64_t kDotK = 144;
  constexpr std::int64_t kDotN = 512;
  const Tensor da = random_tensor({kDotM, kDotN}, rng);
  const Tensor db = random_tensor({kDotK, kDotN}, rng);
  const auto dot_tile =
      measure(best, ambient, kReps,
              dp::tensor::reference::matmul_transpose_b(da, db),
              /*inner_dim=*/kDotN,
              [&] { return dp::tensor::matmul_transpose_b(da, db); });
  bool dot_tile_is_dot = true;
  {
    const Tensor tiled = dp::tensor::matmul_transpose_b(da, db);
    const auto& kern = *dp::tensor::simd::table_for(best);
    for (std::int64_t i = 0; i < kDotM; ++i) {
      for (std::int64_t j = 0; j < kDotK; ++j) {
        const float want =
            kern.dot(da.data() + i * kDotN, db.data() + j * kDotN, kDotN);
        dot_tile_is_dot = dot_tile_is_dot &&
                          std::memcmp(&want, tiled.data() + i * kDotK + j,
                                      sizeof(float)) == 0;
      }
    }
  }
  const auto dot_gflops = [&](double ms) {
    return 2.0 * kDotM * kDotK * kDotN / (ms * 1e6);
  };

  // ---- conv2d forward, 3x3 stride 1 pad 1 --------------------------------
  // Run under NoGradGuard — the sampler's configuration. Two shapes: a
  // 32x32 image batch, and the U-Net's widest 8x8 conv (the 48->16 decoder
  // conv at batch 8). The reference composes the retained per-sample
  // kernels: im2col, the naive GEMM, then the bias.
  dp::nn::NoGradGuard no_grad;
  const auto conv_case = [&](std::int64_t batch, std::int64_t in_ch,
                             std::int64_t out_ch, std::int64_t side) {
    const Tensor cx = random_tensor({batch, in_ch, side, side}, rng);
    const Tensor cw = random_tensor({out_ch, in_ch, 3, 3}, rng);
    const Tensor cb = random_tensor({out_ch}, rng);
    dp::tensor::Conv2dGeometry geom;
    geom.in_channels = in_ch;
    geom.in_h = side;
    geom.in_w = side;
    geom.kernel_h = 3;
    geom.kernel_w = 3;
    geom.stride = 1;
    geom.padding = 1;
    const auto n_out = geom.out_h() * geom.out_w();
    Tensor conv_ref({batch, out_ch, geom.out_h(), geom.out_w()});
    const Tensor w2d = cw.reshaped({out_ch, geom.patch_size()});
    for (std::int64_t n = 0; n < batch; ++n) {
      Tensor image({1, in_ch, side, side});
      std::copy(cx.data() + n * image.numel(),
                cx.data() + (n + 1) * image.numel(), image.data());
      const Tensor y = dp::tensor::reference::matmul(
          w2d, dp::tensor::im2col_batch(image, geom));
      for (std::int64_t o = 0; o < out_ch; ++o) {
        for (std::int64_t p = 0; p < n_out; ++p) {
          conv_ref[(n * out_ch + o) * n_out + p] = y[o * n_out + p] + cb[o];
        }
      }
    }
    return measure(best, ambient, kReps, conv_ref,
                   /*inner_dim=*/geom.patch_size(), [&] {
      return dp::nn::conv2d(dp::nn::Var(cx), dp::nn::Var(cw),
                            dp::nn::Var(cb), /*stride=*/1, /*padding=*/1)
          .value();
    });
  };
  const auto conv = conv_case(16, 16, 32, 32);
  const auto unet_conv = conv_case(8, 48, 16, 8);

  // ---- conv2d at the benchmark U-Net's batch-8 shapes ----------------------
  // Each conv (tensor::conv2d) next to the same product on a resident
  // panel: the register tiles over its [O, K] weight times one K x 16
  // panel, once per 16-column strip of the conv, each into a fresh zero C,
  // with the offset table and zero flags built once per run as the conv
  // builds them. So 1 - panel time / conv time is the conv's data-movement
  // share (border copy, panel gather, offsets, output fill, epilogue). One
  // timed run repeats the conv kShapeRepeats times; the two are timed
  // alternately at one thread and each keeps its best run, so host load
  // drifts hit both alike.
  struct ConvShape {
    const char* label;
    const char* key;
    std::int64_t in_ch, out_ch, side, kernel, stride, pad;
  };
  const ConvShape shapes[] = {
      {"8x8 16->16 3x3:   ", "conv_8x8_16_16_3x3", 16, 16, 8, 3, 1, 1},
      {"4x4 32->32 3x3:   ", "conv_4x4_32_32_3x3", 32, 32, 4, 3, 1, 1},
      {"4x4 32->96 1x1:   ", "conv_4x4_32_96_1x1", 32, 96, 4, 1, 1, 0},
      {"8x8 16->16 3x3 s2:", "conv_8x8_16_16_3x3_s2", 16, 16, 8, 3, 2, 1},
  };
  constexpr std::int64_t kShapeBatch = 8;
  constexpr int kShapeRepeats = 100;
  constexpr int kShapeReps = 15;
  constexpr std::int64_t kStrip = dp::tensor::simd::kTileCols;
  struct ShapeReport {
    KernelReport conv;
    KernelReport panel;
    double conv_ms = 0.0;   // Best interleaved run, best backend, 1 thread.
    double panel_ms = 0.0;
    double flops = 0.0;     // Per timed run.

    double gflops(double ms) const { return flops / (ms * 1e6); }
    double non_gemm_share() const { return 1.0 - panel_ms / conv_ms; }
  };
  std::vector<ShapeReport> shape_reports;
  for (const auto& sh : shapes) {
    dp::tensor::Conv2dGeometry geom;
    geom.in_channels = sh.in_ch;
    geom.in_h = sh.side;
    geom.in_w = sh.side;
    geom.kernel_h = sh.kernel;
    geom.kernel_w = sh.kernel;
    geom.stride = sh.stride;
    geom.padding = sh.pad;
    const auto kdim = geom.patch_size();
    const auto n_out = geom.out_h() * geom.out_w();
    const auto strips = kShapeBatch * n_out / kStrip;
    const Tensor sx =
        random_tensor({kShapeBatch, sh.in_ch, sh.side, sh.side}, rng);
    const Tensor sw = random_tensor({sh.out_ch, kdim}, rng);
    const Tensor sb = random_tensor({sh.out_ch}, rng);
    const Tensor prod = dp::tensor::reference::matmul(
        sw, dp::tensor::im2col_batch(sx, geom));
    Tensor sref({kShapeBatch, sh.out_ch, geom.out_h(), geom.out_w()});
    for (std::int64_t o = 0; o < sh.out_ch; ++o) {
      for (std::int64_t p = 0; p < kShapeBatch * n_out; ++p) {
        sref[(p / n_out * sh.out_ch + o) * n_out + p % n_out] =
            prod[o * kShapeBatch * n_out + p] + sb[o];
      }
    }
    const Tensor panel = random_tensor({kdim, kStrip}, rng);
    const auto run_conv = [&] {
      Tensor y;
      for (int rep = 0; rep < kShapeRepeats; ++rep) {
        y = dp::tensor::conv2d(sx, sw, sb, geom);
      }
      return y;
    };
    const auto run_panel = [&] {
      const auto& kern = dp::tensor::simd::active();
      const auto rows = dp::tensor::simd::kTileRows;
      std::vector<std::int64_t> koff(static_cast<std::size_t>(kdim));
      for (std::int64_t kk = 0; kk < kdim; ++kk) {
        koff[static_cast<std::size_t>(kk)] = kk * kStrip;
      }
      std::vector<bool> has_zero;
      for (std::int64_t i0 = 0; i0 < sh.out_ch; i0 += rows) {
        has_zero.push_back(
            kern.block_has_zero(sw.data() + i0 * kdim, kdim, kdim));
      }
      Tensor c({sh.out_ch, kStrip});
      for (std::int64_t rep = 0; rep < kShapeRepeats * strips; ++rep) {
        c.fill(0.0F);
        for (std::int64_t i0 = 0; i0 < sh.out_ch; i0 += rows) {
          kern.gemm_tile(sw.data() + i0 * kdim, kdim,
                         has_zero[static_cast<std::size_t>(i0 / rows)],
                         panel.data(), panel.data() + dp::tensor::simd::kTileHalf,
                         koff.data(), c.data() + i0 * kStrip, kStrip, kdim);
        }
      }
      return c;
    };
    ShapeReport r;
    r.flops = 2.0 * static_cast<double>(sh.out_ch * kdim * strips * kStrip) *
              kShapeRepeats;
    r.conv = measure(best, ambient, kReps, sref, kdim, run_conv);
    r.panel = measure(best, ambient, kReps,
                      dp::tensor::reference::matmul(sw, panel), kdim,
                      run_panel);
    set_threads_or_die(1);
    for (int rep = 0; rep < kShapeReps; ++rep) {
      const double conv_ms = best_of_seconds(1, run_conv) * 1000.0;
      const double panel_ms = best_of_seconds(1, run_panel) * 1000.0;
      r.conv_ms = rep == 0 ? conv_ms : std::min(r.conv_ms, conv_ms);
      r.panel_ms = rep == 0 ? panel_ms : std::min(r.panel_ms, panel_ms);
    }
    set_threads_or_die(ambient);
    shape_reports.push_back(r);
  }

  // ---- softmax over [4096, 256] rows --------------------------------------
  const Tensor logits = random_tensor({4096, 256}, rng);
  const auto sm = measure(best, ambient, kReps,
                          dp::tensor::reference::softmax_rows(logits),
                          /*inner_dim=*/256,
                          [&] { return dp::tensor::softmax_rows(logits); });

  // ---- group-norm moments: 64 groups of 128 floats -------------------------
  // The b8 8x8-level group norm's statistics (8 samples x 8 groups of 2
  // channel planes): sum and centered sum of squares per group, eight
  // groups per kernel call (four interleaved add chains on AVX2) and, for
  // comparison, one group per call. Every way must give the same doubles,
  // within 1e-9 of a plain sequential double sum.
  constexpr std::int64_t kGroups = 64;
  constexpr std::int64_t kGroupElems = 128;
  constexpr int kMomentPasses = 2000;
  const Tensor gx = random_tensor({kGroups, kGroupElems}, rng);
  const auto moments = [&](const dp::tensor::simd::Kernels& k,
                           std::int64_t rows_per_call) {
    std::vector<double> out(2 * kGroups);
    for (std::int64_t r = 0; r < kGroups; r += rows_per_call) {
      const float* src = gx.data() + r * kGroupElems;
      k.sum(src, kGroupElems, rows_per_call, out.data() + r);
      for (std::int64_t i = r; i < r + rows_per_call; ++i) {
        out[static_cast<std::size_t>(kGroups + i)] =
            out[static_cast<std::size_t>(i)] / kGroupElems;
      }
      k.sumsq_centered(src, out.data() + kGroups + r, kGroupElems,
                       rows_per_call, out.data() + kGroups + r);
    }
    return out;
  };
  const auto& scalar_table =
      *dp::tensor::simd::table_for(KernelBackend::kScalar);
  const auto& best_table = *dp::tensor::simd::table_for(best);
  const auto moments_want = moments(scalar_table, 1);
  bool moments_ok = moments(scalar_table, 8) == moments_want &&
                    moments(best_table, 8) == moments_want &&
                    moments(best_table, 1) == moments_want;
  for (std::int64_t r = 0; r < kGroups; ++r) {
    double exact = 0.0;
    for (std::int64_t i = 0; i < kGroupElems; ++i) {
      exact += static_cast<double>(gx[r * kGroupElems + i]);
    }
    moments_ok = moments_ok &&
                 std::abs(moments_want[static_cast<std::size_t>(r)] - exact) <=
                     1e-9 * std::max(1.0, std::abs(exact));
  }
  const auto moments_us = [&](const dp::tensor::simd::Kernels& k,
                              std::int64_t rows_per_call) {
    return best_of_seconds(kReps, [&] {
             for (int p = 0; p < kMomentPasses; ++p) {
               moments(k, rows_per_call);
             }
           }) *
           1e6 / kMomentPasses;
  };
  const double moments_us_scalar = moments_us(scalar_table, 8);
  const double moments_us_simd_rows1 = moments_us(best_table, 1);
  const double moments_us_simd = moments_us(best_table, 8);

  // ---- SiLU over 1 Mi elements (x * sigmoid(x), the table's own exp) ------
  // Normal inputs with sigma 4: the sigmoid's centre and both of its tails.
  Tensor act = random_tensor({16, 64, 32, 32}, rng);
  for (std::int64_t i = 0; i < act.numel(); ++i) {
    act[i] *= 4.0F;
  }
  const auto silu =
      measure(best, ambient, kReps, dp::tensor::reference::silu(act),
              /*inner_dim=*/1,
              [&] { return dp::nn::silu(dp::nn::Var(act)).value(); });
  const double ms_to_ns_per_element =
      1e6 / static_cast<double>(act.numel());

  // Restore ambient dispatch for any code running after us.
  set_backend_or_die(best);

  bool all_ok = mm.parity_ok && mm.reference_ok && tile.parity_ok &&
                      tile.reference_ok && dot_tile.parity_ok &&
                      dot_tile.reference_ok && dot_tile_is_dot &&
                      conv.parity_ok &&
                      conv.reference_ok && unet_conv.parity_ok &&
                      unet_conv.reference_ok && sm.parity_ok &&
                      sm.reference_ok && silu.parity_ok &&
                      silu.reference_ok && moments_ok;
  for (const auto& r : shape_reports) {
    all_ok = all_ok && r.conv.parity_ok && r.conv.reference_ok &&
             r.panel.parity_ok && r.panel.reference_ok;
  }
  const auto row = [](const char* name, const KernelReport& r) {
    std::cout << name << "  scalar " << r.scalar_ms_1t << " ms -> simd "
              << r.simd_ms_1t << " ms (x" << r.simd_speedup()
              << "), threaded " << r.simd_ms_nt << " ms"
              << (r.parity_ok ? "" : "  [PARITY BROKEN]")
              << (r.reference_ok ? "" : "  [REFERENCE DRIFT]") << "\n";
  };
  row("matmul  256x384x512: ", mm);
  std::cout << "gemm_tile 32x288x16:   scalar " << gflops(tile.scalar_ms_1t)
            << " GFLOP/s -> simd " << gflops(tile.simd_ms_1t) << " GFLOP/s (x"
            << tile.simd_speedup() << ")"
            << (tile.parity_ok ? "" : "  [PARITY BROKEN]")
            << (tile.reference_ok ? "" : "  [REFERENCE DRIFT]") << "\n";
  std::cout << "dot_tile 16x144x512:   scalar "
            << dot_gflops(dot_tile.scalar_ms_1t) << " GFLOP/s -> simd "
            << dot_gflops(dot_tile.simd_ms_1t) << " GFLOP/s (x"
            << dot_tile.simd_speedup() << "), threaded "
            << dot_gflops(dot_tile.simd_ms_nt) << " GFLOP/s"
            << (dot_tile.parity_ok && dot_tile_is_dot ? ""
                                                      : "  [PARITY BROKEN]")
            << (dot_tile.reference_ok ? "" : "  [REFERENCE DRIFT]") << "\n";
  row("conv2d  16x16x32x32: ", conv);
  row("conv2d  8x48x8x8->16:", unet_conv);
  for (std::size_t i = 0; i < shape_reports.size(); ++i) {
    const auto& r = shape_reports[i];
    const bool ok = r.conv.parity_ok && r.conv.reference_ok &&
                    r.panel.parity_ok && r.panel.reference_ok;
    std::cout << "conv b8 " << shapes[i].label << " conv "
              << r.gflops(r.conv_ms) << " GFLOP/s, resident panel "
              << r.gflops(r.panel_ms) << " GFLOP/s, non-GEMM share "
              << 100.0 * r.non_gemm_share() << " %"
              << (ok ? "" : "  [PARITY BROKEN OR REFERENCE DRIFT]") << "\n";
  }
  row("softmax 4096x256:    ", sm);
  std::cout << "gn moments 64x128:     scalar " << moments_us_scalar
            << " us -> simd " << moments_us_simd << " us (one group per call "
            << moments_us_simd_rows1 << " us)"
            << (moments_ok ? "" : "  [PARITY BROKEN OR REFERENCE DRIFT]")
            << "\n";
  std::cout << "silu    1Mi elements:  scalar "
            << silu.scalar_ms_1t * ms_to_ns_per_element
            << " ns/element -> simd "
            << silu.simd_ms_1t * ms_to_ns_per_element << " ns/element (x"
            << silu.simd_speedup() << "), threaded "
            << silu.simd_ms_nt * ms_to_ns_per_element << " ns/element"
            << (silu.parity_ok ? "" : "  [PARITY BROKEN]")
            << (silu.reference_ok ? "" : "  [REFERENCE DRIFT]") << "\n";
  std::cout << "backend parity (scalar == "
            << dp::tensor::kernel_backend_label(best)
            << ", bitwise) and reference agreement: "
            << (all_ok ? "yes" : "NO") << "\n";

  std::vector<std::pair<std::string, double>> metrics = {
      {"backend_is_vector",
        best == KernelBackend::kScalar ? 0.0 : 1.0},
       {"matmul_ms_scalar_1_thread", mm.scalar_ms_1t},
       {"matmul_ms_simd_1_thread", mm.simd_ms_1t},
       {"matmul_simd_speedup", mm.simd_speedup()},
       {"matmul_ms_simd_n_threads", mm.simd_ms_nt},
       {"gemm_tile_gflops_scalar_1_thread", gflops(tile.scalar_ms_1t)},
       {"gemm_tile_gflops_simd_1_thread", gflops(tile.simd_ms_1t)},
       {"gemm_tile_simd_speedup", tile.simd_speedup()},
       {"dot_tile_gflops_scalar_1_thread", dot_gflops(dot_tile.scalar_ms_1t)},
       {"dot_tile_gflops_simd_1_thread", dot_gflops(dot_tile.simd_ms_1t)},
       {"dot_tile_gflops_simd_n_threads", dot_gflops(dot_tile.simd_ms_nt)},
       {"conv2d_ms_scalar_1_thread", conv.scalar_ms_1t},
       {"conv2d_ms_simd_1_thread", conv.simd_ms_1t},
       {"conv2d_simd_speedup", conv.simd_speedup()},
       {"conv2d_ms_simd_n_threads", conv.simd_ms_nt},
       {"unet_conv2d_ms_scalar_1_thread", unet_conv.scalar_ms_1t},
       {"unet_conv2d_ms_simd_1_thread", unet_conv.simd_ms_1t},
       {"unet_conv2d_simd_speedup", unet_conv.simd_speedup()},
       {"unet_conv2d_ms_simd_n_threads", unet_conv.simd_ms_nt},
       {"softmax_ms_scalar_1_thread", sm.scalar_ms_1t},
       {"softmax_ms_simd_1_thread", sm.simd_ms_1t},
       {"softmax_simd_speedup", sm.simd_speedup()},
       {"softmax_ms_simd_n_threads", sm.simd_ms_nt},
       {"silu_ns_per_element_scalar_1_thread",
        silu.scalar_ms_1t * ms_to_ns_per_element},
       {"silu_ns_per_element_simd_1_thread",
        silu.simd_ms_1t * ms_to_ns_per_element},
       {"silu_simd_speedup", silu.simd_speedup()},
       {"silu_ns_per_element_simd_n_threads",
        silu.simd_ms_nt * ms_to_ns_per_element},
       {"gn_moments_us_scalar_1_thread", moments_us_scalar},
       {"gn_moments_us_simd_1_thread", moments_us_simd},
       {"gn_moments_us_simd_one_group_per_call", moments_us_simd_rows1},
       {"bitwise_backend_parity", all_ok ? 1.0 : 0.0}};
  for (std::size_t i = 0; i < shape_reports.size(); ++i) {
    const auto& r = shape_reports[i];
    const std::string key = shapes[i].key;
    metrics.emplace_back(key + "_gflops_simd_1_thread", r.gflops(r.conv_ms));
    metrics.emplace_back(key + "_panel_gflops_simd_1_thread",
                         r.gflops(r.panel_ms));
    metrics.emplace_back(key + "_non_gemm_share", r.non_gemm_share());
  }
  dp::bench::write_bench_json("kernels", metrics);
  return all_ok ? 0 : 1;
}
