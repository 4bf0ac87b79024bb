// Parallel compute backend tests: ComputePool semantics, thread-count
// resolution (0 is INVALID_ARGUMENT, auto falls back sanely), and the
// blocked/parallel kernels' determinism contract — bitwise-identical output
// at every pool size, and agreement with the retained naive references
// within a tight ULP bound (the dispatched kernels accumulate with fused
// multiply-adds, the references with separate mul/add roundings; see
// tensor/simd.h and tests/test_simd_kernels.cpp for the backend-parity
// half of the contract).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/compute_pool.h"
#include "common/rng.h"
#include "nn/autograd.h"
#include "nn/ops.h"
#include "service/worker_pool.h"
#include "support/reference_kernels.h"
#include "tensor/tensor_ops.h"
#include "ulp_test_util.h"

namespace dc = diffpattern::common;
namespace dt = diffpattern::tensor;
namespace dn = diffpattern::nn;
using dt::Tensor;

namespace {

/// Restores the ambient pool size when a test that resizes it finishes, so
/// test order never matters.
class ThreadsGuard {
 public:
  ThreadsGuard() = default;
  ~ThreadsGuard() {
    EXPECT_TRUE(dc::set_global_compute_threads(-1).ok());
  }
};

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

const std::int64_t kPoolSizes[] = {1, 2, 8};

/// Reference-agreement bound for the fused-vs-split rounding drift (see
/// tests/test_simd_kernels.cpp, which owns the tighter per-kernel checks).
constexpr std::int64_t kUlpBound = 128;
/// Absolute escape for accumulations cancelling towards zero (huge ULP
/// distance on a tiny result, same absolute drift).
constexpr float kUlpAtol = 1e-5F;

}  // namespace

TEST(ComputePool, ResolveRejectsZeroWithInvalidArgument) {
  const auto resolved = dc::resolve_thread_count(0);
  ASSERT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.status().code(), dc::StatusCode::kInvalidArgument);
}

TEST(ComputePool, ResolveTakesPositiveVerbatimAndAutoFallsBack) {
  const auto explicit_n = dc::resolve_thread_count(5);
  ASSERT_TRUE(explicit_n.ok());
  EXPECT_EQ(*explicit_n, 5);
  const auto auto_n = dc::resolve_thread_count(-1);
  ASSERT_TRUE(auto_n.ok());
  EXPECT_GE(*auto_n, 1);  // >= 1 even when hardware_concurrency() is 0.
  EXPECT_GE(dc::hardware_thread_count(), 1);
}

TEST(ComputePool, ResolveRejectsAbsurdCountsBeforeSpawningThreads) {
  const auto resolved = dc::resolve_thread_count(dc::kMaxComputeThreads + 1);
  ASSERT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.status().code(), dc::StatusCode::kInvalidArgument);
  const auto at_limit = dc::resolve_thread_count(dc::kMaxComputeThreads);
  ASSERT_TRUE(at_limit.ok());
  EXPECT_EQ(*at_limit, dc::kMaxComputeThreads);
}

TEST(ComputePool, SetGlobalThreadsRejectsZero) {
  const auto status = dc::set_global_compute_threads(0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), dc::StatusCode::kInvalidArgument);
  EXPECT_GE(dc::global_compute_threads(), 1);  // Pool untouched and usable.
}

TEST(ComputePool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const auto threads : kPoolSizes) {
    dc::ComputePool pool(threads);
    constexpr std::int64_t kN = 10'007;  // Prime: uneven chunking.
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(0, kN, /*grain=*/16,
                      [&](std::int64_t b, std::int64_t e) {
                        for (std::int64_t i = b; i < e; ++i) {
                          hits[static_cast<std::size_t>(i)]++;
                        }
                      });
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "i=" << i;
    }
  }
}

TEST(ComputePool, NestedParallelForRunsInlineWithoutDeadlock) {
  dc::ComputePool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(0, 8, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      pool.parallel_for(0, 100, 1, [&](std::int64_t ib, std::int64_t ie) {
        total += ie - ib;
      });
    }
  });
  EXPECT_EQ(total.load(), 800);
}

TEST(ComputePool, EmptyRangeIsANoOp) {
  dc::ComputePool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ServiceWorkerPool, DefaultSizeIsAtLeastOne) {
  EXPECT_GE(diffpattern::service::WorkerPool::default_size(), 1);
}

TEST(ParallelKernels, MatmulFamilyBitwiseEqualAcrossPoolSizes) {
  ThreadsGuard guard;
  dc::Rng rng(11);
  // Odd sizes defeat any chunking alignment; include zeros so the sparse
  // skip path is exercised identically.
  Tensor a = random_tensor({65, 47}, rng);
  Tensor b = random_tensor({47, 83}, rng);
  for (std::int64_t i = 0; i < a.numel(); i += 7) {
    a[i] = 0.0F;
  }
  Tensor baseline;
  for (const auto threads : kPoolSizes) {
    ASSERT_TRUE(dc::set_global_compute_threads(threads).ok());
    const Tensor out = dt::matmul(a, b);
    if (baseline.empty()) {
      baseline = out;
    } else {
      EXPECT_TRUE(bitwise_equal(out, baseline)) << threads;
    }
  }
  EXPECT_TRUE(diffpattern::testutil::ulp_close(
      baseline, dt::reference::matmul(a, b), kUlpBound, kUlpAtol));
}

TEST(ParallelKernels, TransposeKernelsBitwiseEqualAcrossPoolSizes) {
  ThreadsGuard guard;
  dc::Rng rng(13);
  const Tensor a = random_tensor({65, 47}, rng);    // [M,K]
  const Tensor b = random_tensor({65, 83}, rng);    // [M,N]
  const Tensor c = random_tensor({29, 47}, rng);    // [K2,N2] for mtb
  const Tensor d = random_tensor({31, 47}, rng);    // [M2,N2]
  Tensor mta_base;
  Tensor mtb_base;
  for (const auto threads : kPoolSizes) {
    ASSERT_TRUE(dc::set_global_compute_threads(threads).ok());
    const Tensor mta = dt::matmul_transpose_a(a, b);
    const Tensor mtb = dt::matmul_transpose_b(d, c);
    if (mta_base.empty()) {
      mta_base = mta;
      mtb_base = mtb;
    } else {
      EXPECT_TRUE(bitwise_equal(mta, mta_base)) << threads;
      EXPECT_TRUE(bitwise_equal(mtb, mtb_base)) << threads;
    }
  }
  EXPECT_TRUE(diffpattern::testutil::ulp_close(
      mta_base, dt::reference::matmul_transpose_a(a, b), kUlpBound,
      kUlpAtol));
  EXPECT_TRUE(diffpattern::testutil::ulp_close(
      mtb_base, dt::reference::matmul_transpose_b(d, c), kUlpBound,
      kUlpAtol));
}

TEST(ParallelKernels, AccumulateMatchesReferenceOnWarmOutput) {
  ThreadsGuard guard;
  dc::Rng rng(17);
  const Tensor a = random_tensor({33, 21}, rng);
  const Tensor b = random_tensor({21, 55}, rng);
  const Tensor warm = random_tensor({33, 55}, rng);
  Tensor ref = warm;
  dt::reference::matmul_accumulate(a, b, ref);
  Tensor baseline;
  for (const auto threads : kPoolSizes) {
    ASSERT_TRUE(dc::set_global_compute_threads(threads).ok());
    Tensor out = warm;
    dt::matmul_accumulate(a, b, out);
    if (baseline.empty()) {
      baseline = out;
    } else {
      EXPECT_TRUE(bitwise_equal(out, baseline)) << threads;
    }
  }
  EXPECT_TRUE(diffpattern::testutil::ulp_close(baseline, ref, kUlpBound,
                                               kUlpAtol));
}

TEST(ParallelKernels, SoftmaxRowsBitwiseEqualAcrossPoolSizes) {
  ThreadsGuard guard;
  dc::Rng rng(19);
  const Tensor logits = random_tensor({129, 37}, rng);
  const Tensor ref = dt::reference::softmax_rows(logits);
  for (const auto threads : kPoolSizes) {
    ASSERT_TRUE(dc::set_global_compute_threads(threads).ok());
    EXPECT_TRUE(bitwise_equal(dt::softmax_rows(logits), ref)) << threads;
  }
}

TEST(ParallelKernels, Im2colBatchMatchesPerSampleBlocks) {
  ThreadsGuard guard;
  dc::Rng rng(23);
  dt::Conv2dGeometry geom;
  geom.in_channels = 3;
  geom.in_h = 9;
  geom.in_w = 7;
  geom.kernel_h = 3;
  geom.kernel_w = 3;
  geom.stride = 2;
  geom.padding = 1;
  const std::int64_t batch = 5;
  const Tensor x = random_tensor({batch, 3, 9, 7}, rng);
  const auto n_out = geom.out_h() * geom.out_w();
  for (const auto threads : kPoolSizes) {
    ASSERT_TRUE(dc::set_global_compute_threads(threads).ok());
    const Tensor cols = dt::im2col_batch(x, geom);
    ASSERT_EQ(cols.dim(0), geom.patch_size());
    ASSERT_EQ(cols.dim(1), batch * n_out);
    for (std::int64_t n = 0; n < batch; ++n) {
      Tensor image({1, 3, 9, 7});
      std::copy(x.data() + n * image.numel(),
                x.data() + (n + 1) * image.numel(), image.data());
      const Tensor single = dt::im2col_batch(image, geom);
      for (std::int64_t r = 0; r < geom.patch_size(); ++r) {
        for (std::int64_t p = 0; p < n_out; ++p) {
          ASSERT_EQ(cols[r * batch * n_out + n * n_out + p],
                    single[r * n_out + p])
              << "thread=" << threads << " n=" << n;
        }
      }
    }
    // Round trip: col2im_batch equals a batch-of-one fold per sample.
    const Tensor folded = dt::col2im_batch(cols, geom, batch);
    for (std::int64_t n = 0; n < batch; ++n) {
      Tensor block({geom.patch_size(), n_out});
      for (std::int64_t r = 0; r < geom.patch_size(); ++r) {
        std::copy(cols.data() + r * batch * n_out + n * n_out,
                  cols.data() + r * batch * n_out + (n + 1) * n_out,
                  block.data() + r * n_out);
      }
      const Tensor single = dt::col2im_batch(block, geom, /*batch=*/1);
      for (std::int64_t i = 0; i < single.numel(); ++i) {
        ASSERT_EQ(folded[n * single.numel() + i], single[i]);
      }
    }
  }
}

TEST(ParallelKernels, Conv2dForwardBitwiseEqualAcrossPoolSizesAndModes) {
  ThreadsGuard guard;
  dc::Rng rng(29);
  const Tensor x = random_tensor({4, 3, 8, 8}, rng);
  const Tensor w = random_tensor({5, 3, 3, 3}, rng);
  const Tensor b = random_tensor({5}, rng);
  Tensor baseline;
  for (const auto threads : kPoolSizes) {
    ASSERT_TRUE(dc::set_global_compute_threads(threads).ok());
    // Training-mode graph path.
    const Tensor train_out =
        dn::conv2d(dn::Var(x, true), dn::Var(w, true), dn::Var(b, true), 1, 1)
            .value();
    // Inference path; run twice so state leaking between calls (or from
    // the previous pool size) would be caught.
    Tensor infer_out;
    {
      dn::NoGradGuard no_grad;
      infer_out =
          dn::conv2d(dn::Var(x), dn::Var(w), dn::Var(b), 1, 1).value();
      const Tensor again =
          dn::conv2d(dn::Var(x), dn::Var(w), dn::Var(b), 1, 1).value();
      EXPECT_TRUE(bitwise_equal(infer_out, again));
    }
    EXPECT_TRUE(bitwise_equal(train_out, infer_out)) << threads;
    if (baseline.empty()) {
      baseline = train_out;
    } else {
      EXPECT_TRUE(bitwise_equal(train_out, baseline)) << threads;
    }
  }
}

namespace {

/// The convolution forward as it was composed before the direct path: one
/// im2col_batch, the GEMM as the canonical per-element chain (fma over the
/// patch rows k ascending from +0, zero weights skipped), then + bias.
Tensor conv2d_oracle(const Tensor& x, const Tensor& w, const Tensor& b,
                     const dt::Conv2dGeometry& geom) {
  const auto batch = x.dim(0);
  const auto out_ch = w.dim(0);
  const auto kdim = geom.patch_size();
  const auto n_out = geom.out_h() * geom.out_w();
  const auto ncols = batch * n_out;
  const Tensor cols = dt::im2col_batch(x, geom);
  Tensor out({batch, out_ch, geom.out_h(), geom.out_w()});
  for (std::int64_t o = 0; o < out_ch; ++o) {
    for (std::int64_t p = 0; p < ncols; ++p) {
      float acc = 0.0F;
      for (std::int64_t r = 0; r < kdim; ++r) {
        const float wv = w[o * kdim + r];
        if (wv != 0.0F) {
          acc = std::fma(wv, cols[r * ncols + p], acc);
        }
      }
      out[(p / n_out * out_ch + o) * n_out + p % n_out] = acc + b[o];
    }
  }
  return out;
}

}  // namespace

// Bitwise equality where NaN matches NaN: when inf - inf and an input NaN
// meet in one chain, which NaN an FMA returns depends on its operand order.
::testing::AssertionResult same_bits_or_nan(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) {
    return ::testing::AssertionFailure()
           << "shape mismatch " << a.shape_string() << " vs "
           << b.shape_string();
  }
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) {
      continue;
    }
    if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// The direct forward (input read in place or through a panel, register
// tiles) against the im2col composition it replaced. Shapes: 3x3 pad 1,
// stride 2, 1x1 pad 0, a 2x3 kernel with pad 2, odd 5x7 images, N*OH*OW not
// a multiple of the 16-column strip, output channels not a multiple of the
// 4-row tile, batch 1/3/16, and every conv shape of the benchmark's U-Net
// at batch 8 (3x3 p1 s1 at 8x8 and 4x4, the 3x3 s2 downsample, 1x1 on 64-
// and 16-pixel planes; O = 8/16/32/96). Weights: ±0 at every 7th entry
// (every 4-row block has a zero), none (the zero-free K loop the benchmark
// runs), or ±0 only in the last full 4-row block (each block's own zero
// flag). Inputs: normal, or with -0, ±inf and NaN mixed in, so a zero
// weight that is not skipped turns an infinity into NaN. At 1/2/4 threads
// and in both autograd modes, and from a bordered input (padded convs)
// with a time-embedding row and a residual added in the epilogue.
TEST(ParallelKernels, Conv2dDirectForwardMatchesIm2colComposition) {
  ThreadsGuard guard;
  struct Case {
    std::int64_t batch, in_ch, h, w, out_ch, kh, kw, stride, pad;
  };
  const Case cases[] = {
      {1, 3, 8, 8, 4, 3, 3, 1, 1},   {3, 5, 5, 7, 6, 3, 3, 1, 1},
      {16, 4, 8, 8, 8, 3, 3, 2, 1},  {3, 6, 5, 7, 3, 1, 1, 1, 0},
      {3, 2, 5, 7, 5, 3, 3, 2, 1},   {16, 3, 5, 7, 2, 3, 3, 1, 1},
      {1, 2, 5, 7, 4, 2, 3, 1, 2},   {3, 48, 8, 8, 16, 3, 3, 1, 1},
      {3, 2, 3, 8, 5, 3, 3, 1, 1},   {1, 4, 4, 6, 4, 1, 1, 1, 0},
      // The benchmark's U-Net at batch 8.
      {8, 4, 8, 8, 16, 3, 3, 1, 1},  {8, 16, 8, 8, 16, 3, 3, 1, 1},
      {8, 48, 8, 8, 16, 3, 3, 1, 1}, {8, 32, 8, 8, 16, 3, 3, 1, 1},
      {8, 32, 8, 8, 32, 3, 3, 1, 1}, {8, 16, 8, 8, 8, 3, 3, 1, 1},
      {8, 16, 8, 8, 16, 3, 3, 2, 1}, {8, 16, 4, 4, 32, 3, 3, 1, 1},
      {8, 32, 4, 4, 32, 3, 3, 1, 1}, {8, 64, 4, 4, 32, 3, 3, 1, 1},
      {8, 48, 4, 4, 32, 3, 3, 1, 1}, {8, 48, 8, 8, 16, 1, 1, 1, 0},
      {8, 32, 8, 8, 16, 1, 1, 1, 0}, {8, 16, 4, 4, 32, 1, 1, 1, 0},
      {8, 32, 4, 4, 96, 1, 1, 1, 0}, {8, 32, 4, 4, 32, 1, 1, 1, 0},
      {8, 64, 4, 4, 32, 1, 1, 1, 0},
  };
  enum class Zeros { kEvery7th, kNone, kLastBlock };
  constexpr float kInf = std::numeric_limits<float>::infinity();
  dc::Rng rng(37);
  for (const auto& c : cases) {
    dt::Conv2dGeometry geom;
    geom.in_channels = c.in_ch;
    geom.in_h = c.h;
    geom.in_w = c.w;
    geom.kernel_h = c.kh;
    geom.kernel_w = c.kw;
    geom.stride = c.stride;
    geom.padding = c.pad;
    const Tensor b = random_tensor({c.out_ch}, rng);
    for (const bool specials : {false, true}) {
      Tensor x = random_tensor({c.batch, c.in_ch, c.h, c.w}, rng);
      if (specials) {
        for (std::int64_t i = 0; i < x.numel(); i += 5) {
          x[i] = -0.0F;
        }
        x[x.numel() / 3] = kInf;
        x[x.numel() / 2 + 1] = -kInf;
        x[x.numel() - 2] = kInf;
        x[2 * x.numel() / 3] = std::numeric_limits<float>::quiet_NaN();
      }
      for (const auto zeros : {Zeros::kEvery7th, Zeros::kNone,
                               Zeros::kLastBlock}) {
        Tensor w = random_tensor({c.out_ch, c.in_ch, c.kh, c.kw}, rng);
        const auto kdim = geom.patch_size();
        const auto last_block = (c.out_ch / 4 - 1) * 4;
        for (std::int64_t i = 0; i < w.numel(); ++i) {
          const auto row = i / kdim;
          const bool zero =
              zeros == Zeros::kEvery7th
                  ? i % 7 == 0
                  : zeros == Zeros::kLastBlock && last_block >= 0 &&
                        row >= last_block && row < last_block + 4 &&
                        i % 3 == 0;
          if (zero) {
            w[i] = i % 2 == 0 ? 0.0F : -0.0F;
          }
        }
        const Tensor want = conv2d_oracle(x, w, b, geom);
        const Tensor t = random_tensor({c.batch, c.out_ch}, rng);
        const Tensor r = random_tensor(want.shape(), rng);
        for (const std::int64_t threads : {1, 2, 4}) {
          ASSERT_TRUE(dc::set_global_compute_threads(threads).ok());
          const Tensor train_out =
              dn::conv2d(dn::Var(x, true), dn::Var(w, true), dn::Var(b, true),
                         c.stride, c.pad)
                  .value();
          EXPECT_TRUE(same_bits_or_nan(train_out, want))
              << "batch " << c.batch << " " << c.in_ch << "->" << c.out_ch
              << " " << c.h << "x" << c.w << " k " << c.kh << "x" << c.kw
              << " s" << c.stride << " p" << c.pad << " specials "
              << specials << " zeros " << static_cast<int>(zeros)
              << " threads " << threads;
          dn::NoGradGuard no_grad;
          EXPECT_TRUE(same_bits_or_nan(
              dn::conv2d(dn::Var(x), dn::Var(w), dn::Var(b), c.stride, c.pad)
                  .value(),
              want))
              << "inference, threads " << threads;
          // The input written with its zero border in place, and the
          // epilogue adds, against the oracle then the two adds.
          const bool bordered = c.pad > 0;
          Tensor in = x;
          if (bordered) {
            in = dt::bordered_input(c.batch, geom);
            dt::write_bordered(x.data(), c.batch * c.in_ch, geom, in.data());
          }
          const auto n_out = want.numel() / (c.batch * c.out_ch);
          Tensor added = want;
          for (std::int64_t i = 0; i < added.numel(); ++i) {
            added[i] = (added[i] + t[i / n_out]) + r[i];
          }
          EXPECT_TRUE(same_bits_or_nan(
              dt::conv2d(in, w, b, geom, bordered, {&t, &r}), added))
              << "bordered " << bordered << " with epilogue, threads "
              << threads;
        }
      }
    }
  }
}

TEST(ParallelKernels, Conv2dGradientsBitwiseEqualAcrossPoolSizes) {
  ThreadsGuard guard;
  dc::Rng rng(31);
  const Tensor x = random_tensor({3, 2, 6, 6}, rng);
  const Tensor w = random_tensor({4, 2, 3, 3}, rng);
  const Tensor b = random_tensor({4}, rng);
  Tensor gx_ref;
  Tensor gw_ref;
  Tensor gb_ref;
  for (const auto threads : kPoolSizes) {
    ASSERT_TRUE(dc::set_global_compute_threads(threads).ok());
    dn::Var vx(x, true);
    dn::Var vw(w, true);
    dn::Var vb(b, true);
    dn::sum_all(dn::conv2d(vx, vw, vb, 1, 1)).backward();
    if (gx_ref.empty()) {
      gx_ref = vx.grad();
      gw_ref = vw.grad();
      gb_ref = vb.grad();
    } else {
      EXPECT_TRUE(bitwise_equal(vx.grad(), gx_ref)) << threads;
      EXPECT_TRUE(bitwise_equal(vw.grad(), gw_ref)) << threads;
      EXPECT_TRUE(bitwise_equal(vb.grad(), gb_ref)) << threads;
    }
  }
}
