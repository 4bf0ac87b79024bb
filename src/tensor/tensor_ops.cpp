#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/contracts.h"
#include "tensor/parallel.h"
#include "tensor/simd.h"

namespace diffpattern::tensor {

namespace {

void require_matrix(const Tensor& t, const char* name) {
  DP_REQUIRE(t.rank() == 2, std::string(name) + ": expected rank-2 tensor, got " +
                                t.shape_string());
}

/// Minimum multiply-accumulates per parallel chunk; rows are cheap enough
/// below this that pool dispatch dominates.
constexpr std::int64_t kGemmGrainFlops = 32 * 1024;

std::int64_t row_grain(std::int64_t flops_per_row) {
  return std::max<std::int64_t>(1,
                                kGemmGrainFlops / std::max<std::int64_t>(
                                                      1, flops_per_row));
}

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

}  // namespace

// ---- GEMM family (blocked, row-parallel) ----------------------------------

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_matrix(a, "matmul(a)");
  require_matrix(b, "matmul(b)");
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  DP_REQUIRE(b.dim(0) == k, "matmul: inner dimension mismatch " +
                                a.shape_string() + " x " + b.shape_string());
  const auto n = b.dim(1);
  Tensor out({m, n}, 0.0F);
  matmul_accumulate(a, b, out);
  return out;
}

void matmul_into(const Tensor& a, const Tensor& b, Tensor& out) {
  require_matrix(a, "matmul_into(a)");
  require_matrix(b, "matmul_into(b)");
  DP_REQUIRE(a.dim(1) == b.dim(0), "matmul_into: inner dimension mismatch " +
                                       a.shape_string() + " x " +
                                       b.shape_string());
  DP_REQUIRE(out.rank() == 2 && out.dim(0) == a.dim(0) &&
                 out.dim(1) == b.dim(1),
             "matmul_into: bad output shape " + out.shape_string());
  out.fill(0.0F);
  matmul_accumulate(a, b, out);
}

void gemm_accumulate(const float* a, std::int64_t lda, const float* b,
                     std::int64_t ldb, float* c, std::int64_t ldc,
                     std::int64_t m, std::int64_t n, std::int64_t k) {
  const auto& kern = simd::active();
  const auto m_tiled = m - m % simd::kTileRows;
  const auto n_tiled = n - n % simd::kTileCols;
  // Column strips outer: one K x 16 strip of B serves every row tile.
  for (std::int64_t j0 = 0; j0 < n_tiled; j0 += simd::kTileCols) {
    for (std::int64_t i0 = 0; i0 < m_tiled; i0 += simd::kTileRows) {
      kern.gemm_tile(a + i0 * lda, lda, b + j0, ldb, c + i0 * ldc + j0, ldc,
                     k);
    }
  }
  // Ragged columns of the tiled rows and every column of the ragged rows:
  // the same per-element chain, through axpy.
  for (std::int64_t i = 0; i < m; ++i) {
    const auto j0 = i < m_tiled ? n_tiled : 0;
    if (j0 == n) {
      continue;
    }
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = a[i * lda + kk];
      if (av == 0.0F) {
        continue;
      }
      kern.axpy(av, b + kk * ldb + j0, c + i * ldc + j0, n - j0);
    }
  }
}

void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& out) {
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  const auto n = b.dim(1);
  DP_REQUIRE(out.dim(0) == m && out.dim(1) == n,
             "matmul_accumulate: bad output shape");
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  // Parallel over row tiles, so only the last chunk has ragged rows.
  parallel_for(
      0, ceil_div(m, simd::kTileRows),
      [&](std::int64_t g0, std::int64_t g1) {
        const auto i0 = g0 * simd::kTileRows;
        const auto i1 = std::min(m, g1 * simd::kTileRows);
        gemm_accumulate(pa + i0 * k, k, pb, n, pc + i0 * n, n, i1 - i0, n, k);
      },
      row_grain(simd::kTileRows * k * n));
}

Tensor matmul_transpose_a(const Tensor& a, const Tensor& b) {
  require_matrix(a, "matmul_transpose_a(a)");
  require_matrix(b, "matmul_transpose_a(b)");
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  DP_REQUIRE(b.dim(0) == m, "matmul_transpose_a: row mismatch");
  // A^T packed once (m*k floats, small next to the k*m*n product) so the
  // product runs through the register tiles; each element keeps its chain
  // over i ascending with zero A entries skipped.
  Tensor at({k, m});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      at[kk * m + i] = a[i * k + kk];
    }
  }
  Tensor out({k, b.dim(1)}, 0.0F);
  matmul_accumulate(at, b, out);
  return out;
}

Tensor matmul_transpose_b(const Tensor& a, const Tensor& b) {
  require_matrix(a, "matmul_transpose_b(a)");
  require_matrix(b, "matmul_transpose_b(b)");
  const auto m = a.dim(0);
  const auto n = a.dim(1);
  DP_REQUIRE(b.dim(1) == n, "matmul_transpose_b: column mismatch");
  const auto k = b.dim(0);
  Tensor out({m, k}, 0.0F);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  const auto& kern = simd::active();
  parallel_for(
      0, m,
      [&](std::int64_t row_begin, std::int64_t row_end) {
        for (std::int64_t i = row_begin; i < row_end; ++i) {
          const float* arow = pa + i * n;
          float* crow = pc + i * k;
          for (std::int64_t kk = 0; kk < k; ++kk) {
            crow[kk] = kern.dot(arow, pb + kk * n, n);
          }
        }
      },
      row_grain(k * n));
  return out;
}

// ---- im2col / col2im ------------------------------------------------------

namespace {

/// Unrolls sample `image` into the column block starting at column `col0`
/// of `cols` (row stride `ncols`), overwriting the whole block. The block's
/// contents are independent of the other samples, so batch unrolls can run
/// one sample per task.
void im2col_block(const float* src, const Conv2dGeometry& geom, float* dst,
                  std::int64_t col0, std::int64_t ncols) {
  const auto oh = geom.out_h();
  const auto ow = geom.out_w();
  const auto n_out = oh * ow;
  for (std::int64_t c = 0; c < geom.in_channels; ++c) {
    for (std::int64_t ky = 0; ky < geom.kernel_h; ++ky) {
      for (std::int64_t kx = 0; kx < geom.kernel_w; ++kx) {
        const auto row = (c * geom.kernel_h + ky) * geom.kernel_w + kx;
        float* drow = dst + row * ncols + col0;
        std::fill(drow, drow + n_out, 0.0F);  // Padding contributes zeros.
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const auto iy = oy * geom.stride - geom.padding + ky;
          if (iy < 0 || iy >= geom.in_h) {
            continue;
          }
          const float* srow = src + (c * geom.in_h + iy) * geom.in_w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const auto ix = ox * geom.stride - geom.padding + kx;
            if (ix < 0 || ix >= geom.in_w) {
              continue;
            }
            drow[oy * ow + ox] = srow[ix];
          }
        }
      }
    }
  }
}

/// Adjoint of im2col_block: folds one sample's column block back into its
/// image slice (pre-zeroed by the caller).
void col2im_block(const float* src, const Conv2dGeometry& geom, float* dst,
                  std::int64_t col0, std::int64_t ncols) {
  const auto oh = geom.out_h();
  const auto ow = geom.out_w();
  for (std::int64_t c = 0; c < geom.in_channels; ++c) {
    for (std::int64_t ky = 0; ky < geom.kernel_h; ++ky) {
      for (std::int64_t kx = 0; kx < geom.kernel_w; ++kx) {
        const auto row = (c * geom.kernel_h + ky) * geom.kernel_w + kx;
        const float* srow = src + row * ncols + col0;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const auto iy = oy * geom.stride - geom.padding + ky;
          if (iy < 0 || iy >= geom.in_h) {
            continue;
          }
          float* drow = dst + (c * geom.in_h + iy) * geom.in_w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const auto ix = ox * geom.stride - geom.padding + kx;
            if (ix < 0 || ix >= geom.in_w) {
              continue;
            }
            drow[ix] += srow[oy * ow + ox];
          }
        }
      }
    }
  }
}

}  // namespace

Tensor im2col(const Tensor& image, const Conv2dGeometry& geom) {
  DP_REQUIRE(image.rank() == 3, "im2col: expected [C,H,W]");
  DP_REQUIRE(image.dim(0) == geom.in_channels && image.dim(1) == geom.in_h &&
                 image.dim(2) == geom.in_w,
             "im2col: geometry mismatch with image " + image.shape_string());
  const auto oh = geom.out_h();
  const auto ow = geom.out_w();
  DP_REQUIRE(oh > 0 && ow > 0, "im2col: empty output window");
  Tensor cols({geom.patch_size(), oh * ow});
  im2col_block(image.data(), geom, cols.data(), 0, oh * ow);
  return cols;
}

Tensor im2col_batch(const Tensor& images, const Conv2dGeometry& geom) {
  DP_REQUIRE(images.rank() == 4, "im2col_batch: expected [N,C,H,W]");
  DP_REQUIRE(images.dim(1) == geom.in_channels &&
                 images.dim(2) == geom.in_h && images.dim(3) == geom.in_w,
             "im2col_batch: geometry mismatch with batch " +
                 images.shape_string());
  const auto batch = images.dim(0);
  const auto n_out = geom.out_h() * geom.out_w();
  DP_REQUIRE(n_out > 0, "im2col_batch: empty output window");
  const auto ncols = batch * n_out;
  Tensor cols({geom.patch_size(), ncols});
  const auto per_sample = images.numel() / batch;
  const float* src = images.data();
  float* dst = cols.data();
  parallel_for(0, batch, [&](std::int64_t nb, std::int64_t ne) {
    for (std::int64_t n = nb; n < ne; ++n) {
      im2col_block(src + n * per_sample, geom, dst, n * n_out, ncols);
    }
  });
  return cols;
}

Tensor col2im(const Tensor& columns, const Conv2dGeometry& geom) {
  DP_REQUIRE(columns.rank() == 2, "col2im: expected rank-2 columns");
  const auto oh = geom.out_h();
  const auto ow = geom.out_w();
  DP_REQUIRE(columns.dim(0) == geom.patch_size() &&
                 columns.dim(1) == oh * ow,
             "col2im: column shape mismatch");
  Tensor image({geom.in_channels, geom.in_h, geom.in_w}, 0.0F);
  col2im_block(columns.data(), geom, image.data(), 0, oh * ow);
  return image;
}

Tensor col2im_batch(const Tensor& columns, const Conv2dGeometry& geom,
                    std::int64_t batch) {
  DP_REQUIRE(columns.rank() == 2, "col2im_batch: expected rank-2 columns");
  DP_REQUIRE(batch >= 1, "col2im_batch: batch must be >= 1");
  const auto n_out = geom.out_h() * geom.out_w();
  DP_REQUIRE(columns.dim(0) == geom.patch_size() &&
                 columns.dim(1) == batch * n_out,
             "col2im_batch: column shape mismatch");
  Tensor images({batch, geom.in_channels, geom.in_h, geom.in_w}, 0.0F);
  const auto per_sample = images.numel() / batch;
  const float* src = columns.data();
  float* dst = images.data();
  parallel_for(0, batch, [&](std::int64_t nb, std::int64_t ne) {
    for (std::int64_t n = nb; n < ne; ++n) {
      col2im_block(src, geom, dst + n * per_sample, n * n_out,
                   batch * n_out);
    }
  });
  return images;
}

// ---- direct convolution --------------------------------------------------

Tensor conv2d(const Tensor& images, const Tensor& weight, const Tensor& bias,
              const Conv2dGeometry& geom) {
  DP_REQUIRE(images.rank() == 4 && images.dim(1) == geom.in_channels &&
                 images.dim(2) == geom.in_h && images.dim(3) == geom.in_w,
             "conv2d: geometry mismatch with batch " + images.shape_string());
  const auto out_ch = weight.dim(0);
  const auto kdim = geom.patch_size();
  DP_REQUIRE(weight.numel() == out_ch * kdim,
             "conv2d: weight shape mismatch " + weight.shape_string());
  DP_REQUIRE(bias.rank() == 1 && bias.dim(0) == out_ch,
             "conv2d: bias shape mismatch");
  const auto oh = geom.out_h();
  const auto ow = geom.out_w();
  DP_REQUIRE(oh > 0 && ow > 0, "conv2d: output would be empty");
  const auto batch = images.dim(0);
  const auto n_out = oh * ow;
  const auto ncols = batch * n_out;
  const auto pad = geom.padding;
  const auto hp = geom.in_h + 2 * pad;
  const auto wp = geom.in_w + 2 * pad;
  const auto plane = hp * wp;

  // Zero-bordered copy of the input: every panel entry, padding included,
  // is then a plain load at (column offset + row offset).
  Tensor padded;
  const float* src = images.data();
  if (pad > 0) {
    padded = Tensor({batch, geom.in_channels, hp, wp}, 0.0F);
    for (std::int64_t p = 0; p < batch * geom.in_channels; ++p) {
      for (std::int64_t y = 0; y < geom.in_h; ++y) {
        std::copy_n(src + (p * geom.in_h + y) * geom.in_w, geom.in_w,
                    padded.data() + p * plane + (y + pad) * wp + pad);
      }
    }
    src = padded.data();
  }

  Tensor out({batch, out_ch, oh, ow});
  float* po = out.data();
  const float* pw = weight.data();
  const float* pbias = bias.data();
  const auto& kern = simd::active();
  constexpr std::int64_t kStrip = simd::kTileCols;
  constexpr std::int64_t kRun = 8;  // Gather granularity within a strip.
  // One task per strip of 16 output columns (im2col column order: sample,
  // then output row, then output column). Each element is the im2col + GEMM
  // chain: fma over the patch rows k ascending from +0 (zero weights
  // skipped), then + bias — so the bytes are those of the composition.
  parallel_for(
      0, ceil_div(ncols, kStrip),
      [&](std::int64_t s0, std::int64_t s1) {
        // The K x 16 column panel (L1-resident for K <= 576) and the
        // O x 16 accumulator block, in a per-thread buffer that only grows:
        // every entry is written before it is read.
        thread_local std::vector<float> scratch;
        const auto need = static_cast<std::size_t>((kdim + out_ch) * kStrip);
        if (scratch.size() < need) {
          scratch.resize(need);
        }
        float* panel = scratch.data();
        float* acc = panel + kdim * kStrip;
        for (std::int64_t s = s0; s < s1; ++s) {
          const auto p0 = s * kStrip;
          const auto width = std::min(kStrip, ncols - p0);
          // Window origin of each column in the padded input; columns past
          // the end repeat the last one (computed, never written).
          std::int64_t off[kStrip];
          for (std::int64_t j = 0; j < kStrip; ++j) {
            const auto p = std::min(p0 + j, ncols - 1);
            const auto q = p % n_out;
            off[j] = p / n_out * geom.in_channels * plane +
                     q / ow * geom.stride * wp + q % ow * geom.stride;
          }
          bool contiguous[kStrip / kRun];
          for (std::int64_t g = 0; g < kStrip / kRun; ++g) {
            const std::int64_t* go = off + g * kRun;
            contiguous[g] =
                std::adjacent_find(go, go + kRun, [](auto x, auto y) {
                  return y != x + 1;
                }) == go + kRun;
          }
          float* dst = panel;
          for (std::int64_t c = 0; c < geom.in_channels; ++c) {
            for (std::int64_t ky = 0; ky < geom.kernel_h; ++ky) {
              for (std::int64_t kx = 0; kx < geom.kernel_w; ++kx) {
                const float* row = src + c * plane + ky * wp + kx;
                for (std::int64_t g = 0; g < kStrip / kRun; ++g) {
                  const std::int64_t* go = off + g * kRun;
                  if (contiguous[g]) {
                    std::copy_n(row + go[0], kRun, dst + g * kRun);
                  } else {
                    for (std::int64_t t = 0; t < kRun; ++t) {
                      dst[g * kRun + t] = row[go[t]];
                    }
                  }
                }
                dst += kStrip;
              }
            }
          }
          std::fill_n(acc, out_ch * kStrip, 0.0F);
          gemm_accumulate(pw, kdim, panel, kStrip, acc, kStrip, out_ch,
                          kStrip, kdim);
          // acc + bias straight into [N, O, OH, OW], one run per sample.
          for (std::int64_t j = 0; j < width;) {
            const auto p = p0 + j;
            const auto n = p / n_out;
            const auto q = p % n_out;
            const auto len = std::min(width - j, n_out - q);
            for (std::int64_t o = 0; o < out_ch; ++o) {
              kern.shift(po + (n * out_ch + o) * n_out + q,
                         acc + o * kStrip + j, pbias[o], len);
            }
            j += len;
          }
        }
      },
      row_grain(kdim * kStrip * out_ch));
  return out;
}

// ---- reductions / elementwise ---------------------------------------------

double sum(const Tensor& t) {
  // Sequential double accumulation: the fixed order keeps the value
  // independent of thread count (this is a cold path next to the GEMMs).
  double acc = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    acc += t[i];
  }
  return acc;
}

float max_value(const Tensor& t) {
  DP_REQUIRE(!t.empty(), "max_value: empty tensor");
  float m = t[0];
  for (std::int64_t i = 1; i < t.numel(); ++i) {
    m = std::max(m, t[i]);
  }
  return m;
}

Tensor add(const Tensor& a, const Tensor& b) {
  DP_REQUIRE(a.same_shape(b), "add: shape mismatch " + a.shape_string() +
                                  " vs " + b.shape_string());
  Tensor out = a;
  float* po = out.data();
  const float* pb = b.data();
  const auto& kern = simd::active();
  parallel_elements(out.numel(), [&](std::int64_t i0, std::int64_t i1) {
    kern.add(po + i0, pb + i0, i1 - i0);
  });
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  DP_REQUIRE(a.same_shape(b), "mul: shape mismatch " + a.shape_string() +
                                  " vs " + b.shape_string());
  Tensor out = a;
  float* po = out.data();
  const float* pb = b.data();
  const auto& kern = simd::active();
  parallel_elements(out.numel(), [&](std::int64_t i0, std::int64_t i1) {
    kern.mul(po + i0, pb + i0, i1 - i0);
  });
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a;
  float* po = out.data();
  const auto& kern = simd::active();
  parallel_elements(out.numel(), [&](std::int64_t i0, std::int64_t i1) {
    kern.scale(po + i0, s, i1 - i0);
  });
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  require_matrix(logits, "softmax_rows");
  const auto rows = logits.dim(0);
  const auto cols = logits.dim(1);
  Tensor out = logits;
  const auto& kern = simd::active();
  // Row-parallel: the max and final scale go through the dispatched
  // kernels (exact for every backend); the exp/denominator loop keeps its
  // fixed sequential double accumulation so the value is independent of
  // thread count and backend alike.
  parallel_for(
      0, rows,
      [&](std::int64_t row_begin, std::int64_t row_end) {
        for (std::int64_t i = row_begin; i < row_end; ++i) {
          float* row = out.data() + i * cols;
          const float m = kern.max(row, cols);
          double denom = 0.0;
          for (std::int64_t j = 0; j < cols; ++j) {
            row[j] = std::exp(row[j] - m);
            denom += row[j];
          }
          const auto inv = static_cast<float>(1.0 / denom);
          kern.scale(row, inv, cols);
        }
      },
      std::max<std::int64_t>(1, kElementwiseGrain / std::max<std::int64_t>(
                                                        1, cols)));
  return out;
}

// ---- retained naive reference kernels -------------------------------------

namespace reference {

void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& out) {
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  const auto n = b.dim(1);
  DP_REQUIRE(out.dim(0) == m && out.dim(1) == n,
             "reference::matmul_accumulate: bad output shape");
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0F) {
        continue;
      }
      const float* brow = pb + kk * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_matrix(a, "reference::matmul(a)");
  require_matrix(b, "reference::matmul(b)");
  DP_REQUIRE(b.dim(0) == a.dim(1), "reference::matmul: inner mismatch");
  Tensor out({a.dim(0), b.dim(1)}, 0.0F);
  reference::matmul_accumulate(a, b, out);
  return out;
}

Tensor matmul_transpose_a(const Tensor& a, const Tensor& b) {
  require_matrix(a, "reference::matmul_transpose_a(a)");
  require_matrix(b, "reference::matmul_transpose_a(b)");
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  DP_REQUIRE(b.dim(0) == m, "reference::matmul_transpose_a: row mismatch");
  const auto n = b.dim(1);
  Tensor out({k, n}, 0.0F);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    const float* brow = pb + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0F) {
        continue;
      }
      float* crow = pc + kk * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
  return out;
}

Tensor matmul_transpose_b(const Tensor& a, const Tensor& b) {
  require_matrix(a, "reference::matmul_transpose_b(a)");
  require_matrix(b, "reference::matmul_transpose_b(b)");
  const auto m = a.dim(0);
  const auto n = a.dim(1);
  DP_REQUIRE(b.dim(1) == n, "reference::matmul_transpose_b: column mismatch");
  const auto k = b.dim(0);
  Tensor out({m, k}, 0.0F);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * n;
    float* crow = pc + i * k;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float* brow = pb + kk * n;
      float acc = 0.0F;
      for (std::int64_t j = 0; j < n; ++j) {
        acc += arow[j] * brow[j];
      }
      crow[kk] = acc;
    }
  }
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  require_matrix(logits, "reference::softmax_rows");
  const auto rows = logits.dim(0);
  const auto cols = logits.dim(1);
  Tensor out = logits;
  for (std::int64_t i = 0; i < rows; ++i) {
    float* row = out.data() + i * cols;
    float m = row[0];
    for (std::int64_t j = 1; j < cols; ++j) {
      m = std::max(m, row[j]);
    }
    double denom = 0.0;
    for (std::int64_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - m);
      denom += row[j];
    }
    const auto inv = static_cast<float>(1.0 / denom);
    for (std::int64_t j = 0; j < cols; ++j) {
      row[j] *= inv;
    }
  }
  return out;
}

Tensor sigmoid(const Tensor& x) {
  Tensor out = x;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    out[i] = static_cast<float>(
        1.0 / (1.0 + std::exp(-static_cast<double>(x[i]))));
  }
  return out;
}

Tensor silu(const Tensor& x) {
  Tensor out = x;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    const double v = x[i];
    out[i] = static_cast<float>(v / (1.0 + std::exp(-v)));
  }
  return out;
}

}  // namespace reference

}  // namespace diffpattern::tensor
