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

namespace {

/// block_has_zero of every full kTileRows-row block of A[m x k], once per
/// product: the tile then never rescans its block.
const std::uint8_t* zero_flags(const simd::Kernels& kern, const float* a,
                               std::int64_t lda, std::int64_t m,
                               std::int64_t k) {
  thread_local std::vector<std::uint8_t> flags;
  flags.resize(static_cast<std::size_t>(m / simd::kTileRows));
  for (std::size_t b = 0; b < flags.size(); ++b) {
    flags[b] = kern.block_has_zero(
        a + static_cast<std::int64_t>(b) * simd::kTileRows * lda, lda, k);
  }
  return flags.data();
}

/// C[m, 16] += A[m, k] · B for one strip of 16 columns whose row kk is
/// b_lo + koff[kk] (columns 0..7) and b_hi + koff[kk] (columns 8..15): a
/// register tile per full row block, the same per-element chain through
/// axpy on each half for the ragged rows.
void strip_accumulate(const simd::Kernels& kern, const float* a,
                      std::int64_t lda, const std::uint8_t* has_zero,
                      const float* b_lo, const float* b_hi,
                      const std::int64_t* koff, float* c, std::int64_t ldc,
                      std::int64_t m, std::int64_t k) {
  const auto m_tiled = m - m % simd::kTileRows;
  for (std::int64_t i0 = 0; i0 < m_tiled; i0 += simd::kTileRows) {
    kern.gemm_tile(a + i0 * lda, lda, has_zero[i0 / simd::kTileRows] != 0,
                   b_lo, b_hi, koff, c + i0 * ldc, ldc, k);
  }
  for (std::int64_t i = m_tiled; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = a[i * lda + kk];
      if (av != 0.0F) {
        kern.axpy(av, b_lo + koff[kk], c + i * ldc, simd::kTileHalf);
        kern.axpy(av, b_hi + koff[kk], c + i * ldc + simd::kTileHalf,
                  simd::kTileHalf);
      }
    }
  }
}

}  // namespace

void gemm_accumulate(const float* a, std::int64_t lda, const float* b,
                     std::int64_t ldb, float* c, std::int64_t ldc,
                     std::int64_t m, std::int64_t n, std::int64_t k) {
  const auto& kern = simd::active();
  const auto n_tiled = n - n % simd::kTileCols;
  if (n_tiled > 0) {
    thread_local std::vector<std::int64_t> koff;
    koff.resize(static_cast<std::size_t>(k));
    for (std::int64_t kk = 0; kk < k; ++kk) {
      koff[static_cast<std::size_t>(kk)] = kk * ldb;
    }
    const auto* has_zero = zero_flags(kern, a, lda, m, k);
    // Column strips outer: one K x 16 strip of B serves every row tile.
    for (std::int64_t j0 = 0; j0 < n_tiled; j0 += simd::kTileCols) {
      strip_accumulate(kern, a, lda, has_zero, b + j0,
                       b + j0 + simd::kTileHalf, koff.data(), c + j0, ldc, m,
                       k);
    }
  }
  // Ragged columns: the same per-element chain, through axpy.
  if (n_tiled < n) {
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = a[i * lda + kk];
        if (av != 0.0F) {
          kern.axpy(av, b + kk * ldb + n_tiled, c + i * ldc + n_tiled,
                    n - n_tiled);
        }
      }
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
      work_grain(simd::kTileRows * k * n, kGemmGrainFlops));
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

namespace {

/// Tiles [t0, t1) of c[m,k] = a[m,n] · b[k,n]^T, numbered row block major
/// (kDotRows x kDotCols each): a full tile through dot_tile, a ragged one
/// through dot, so every element is the same canonical dot.
void transpose_b_tiles(const simd::Kernels& kern, const float* a,
                       const float* b, float* c, std::int64_t m,
                       std::int64_t k, std::int64_t n, std::int64_t t0,
                       std::int64_t t1) {
  const auto col_tiles = ceil_div(k, simd::kDotCols);
  for (std::int64_t t = t0; t < t1; ++t) {
    const auto i0 = (t / col_tiles) * simd::kDotRows;
    const auto j0 = (t % col_tiles) * simd::kDotCols;
    if (i0 + simd::kDotRows <= m && j0 + simd::kDotCols <= k) {
      kern.dot_tile(a + i0 * n, b + j0 * n, n, c + i0 * k + j0, k);
      continue;
    }
    for (auto i = i0; i < std::min(m, i0 + simd::kDotRows); ++i) {
      for (auto j = j0; j < std::min(k, j0 + simd::kDotCols); ++j) {
        c[i * k + j] = kern.dot(a + i * n, b + j * n, n);
      }
    }
  }
}

std::int64_t transpose_b_tile_count(std::int64_t m, std::int64_t k) {
  return ceil_div(m, simd::kDotRows) * ceil_div(k, simd::kDotCols);
}

}  // namespace

void gemm_transpose_b(const float* a, const float* b, float* c,
                      std::int64_t m, std::int64_t k, std::int64_t n) {
  transpose_b_tiles(simd::active(), a, b, c, m, k, n, 0,
                    transpose_b_tile_count(m, k));
}

Tensor matmul_transpose_b(const Tensor& a, const Tensor& b) {
  require_matrix(a, "matmul_transpose_b(a)");
  require_matrix(b, "matmul_transpose_b(b)");
  const auto m = a.dim(0);
  const auto n = a.dim(1);
  DP_REQUIRE(b.dim(1) == n, "matmul_transpose_b: column mismatch");
  const auto k = b.dim(0);
  Tensor out({m, k});
  const auto& kern = simd::active();
  // Parallel over tiles, so a product with few rows (the conv weight
  // gradient has one per output channel) still splits.
  parallel_for(
      0, transpose_b_tile_count(m, k),
      [&](std::int64_t t0, std::int64_t t1) {
        transpose_b_tiles(kern, a.data(), b.data(), out.data(), m, k, n, t0,
                          t1);
      },
      work_grain(simd::kDotRows * simd::kDotCols * n, kGemmGrainFlops));
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
  parallel_for(
      0, batch,
      [&](std::int64_t nb, std::int64_t ne) {
        for (std::int64_t n = nb; n < ne; ++n) {
          im2col_block(src + n * per_sample, geom, dst, n * n_out, ncols);
        }
      },
      work_grain(geom.patch_size() * n_out));
  return cols;
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
  parallel_for(
      0, batch,
      [&](std::int64_t nb, std::int64_t ne) {
        for (std::int64_t n = nb; n < ne; ++n) {
          col2im_block(src, geom, dst + n * per_sample, n * n_out,
                       batch * n_out);
        }
      },
      work_grain(geom.patch_size() * n_out));
  return images;
}

// ---- direct convolution --------------------------------------------------

namespace {

/// dst[0..n) = src[0..n) in runs of 8 and 4 floats (fixed-size copies, no
/// memmove call for the short rows of the U-Net's planes).
void copy_row(const float* src, std::int64_t n, float* dst) {
  std::int64_t x = 0;
  for (; x + 8 <= n; x += 8) {
    std::copy_n(src + x, 8, dst + x);
  }
  for (; x + 4 <= n; x += 4) {
    std::copy_n(src + x, 4, dst + x);
  }
  for (; x < n; ++x) {
    dst[x] = src[x];
  }
}

/// write_bordered with the row width fixed at compile time when W > 0, so
/// the U-Net's short rows copy without a loop.
template <std::int64_t W>
void write_bordered_rows(const float* src, std::int64_t planes,
                         std::int64_t h, std::int64_t width,
                         std::int64_t pad, float* dst) {
  const auto w = W > 0 ? W : width;
  const auto wp = w + 2 * pad;
  const auto plane = (h + 2 * pad) * wp;
  dst += pad * wp + pad;
  for (std::int64_t p = 0; p < planes; ++p, dst += plane) {
    for (std::int64_t y = 0; y < h; ++y, src += w) {
      copy_row(src, w, dst + y * wp);
    }
  }
}

/// Packs the K x 16 panel of one strip from the zero-bordered input: row kk
/// reads src + koff[kk] at each column's window origin `off`, in runs of
/// `Run` floats.
template <std::int64_t Run>
void gather_panel(const float* src, const std::int64_t* koff,
                  std::int64_t kdim, const std::int64_t* off, float* panel) {
  for (std::int64_t kk = 0; kk < kdim; ++kk, panel += simd::kTileCols) {
    const float* row = src + koff[kk];
    for (std::int64_t j = 0; j < simd::kTileCols; j += Run) {
      std::copy_n(row + off[j], Run, panel + j);
    }
  }
}

}  // namespace

Tensor bordered_input(std::int64_t batch, const Conv2dGeometry& geom) {
  return Tensor({batch, geom.in_channels, geom.in_h + 2 * geom.padding,
                 geom.in_w + 2 * geom.padding});
}

void write_bordered(const float* src, std::int64_t planes,
                    const Conv2dGeometry& geom, float* dst) {
  const auto h = geom.in_h;
  const auto pad = geom.padding;
  switch (geom.in_w) {
    case 4:
      write_bordered_rows<4>(src, planes, h, 4, pad, dst);
      return;
    case 8:
      write_bordered_rows<8>(src, planes, h, 8, pad, dst);
      return;
    default:
      write_bordered_rows<0>(src, planes, h, geom.in_w, pad, dst);
  }
}

Tensor conv2d(const Tensor& images, const Tensor& weight, const Tensor& bias,
              const Conv2dGeometry& geometry, bool bordered,
              const ConvEpilogue& epilogue) {
  const auto border = bordered ? 2 * geometry.padding : 0;
  DP_REQUIRE(images.rank() == 4 && images.dim(1) == geometry.in_channels &&
                 images.dim(2) == geometry.in_h + border &&
                 images.dim(3) == geometry.in_w + border,
             "conv2d: geometry mismatch with batch " + images.shape_string());
  const auto out_ch = weight.dim(0);
  const auto kdim = geometry.patch_size();
  DP_REQUIRE(weight.numel() == out_ch * kdim,
             "conv2d: weight shape mismatch " + weight.shape_string());
  DP_REQUIRE(bias.rank() == 1 && bias.dim(0) == out_ch,
             "conv2d: bias shape mismatch");
  DP_REQUIRE(geometry.out_h() > 0 && geometry.out_w() > 0,
             "conv2d: output would be empty");
  // A 1x1 stride-1 unpadded conv sees each input plane as one row, with the
  // same im2col column order, so its strips are runs of the input itself.
  Conv2dGeometry geom = geometry;
  if (geom.kernel_h == 1 && geom.kernel_w == 1 && geom.stride == 1 &&
      geom.padding == 0) {
    geom.in_w *= geom.in_h;
    geom.in_h = 1;
  }
  const auto oh = geom.out_h();
  const auto ow = geom.out_w();
  const auto batch = images.dim(0);
  const auto n_out = oh * ow;
  const auto ncols = batch * n_out;
  const auto wp = geom.in_w + 2 * geom.padding;
  const auto plane = (geom.in_h + 2 * geom.padding) * wp;
  const auto sample = geom.in_channels * plane;
  const auto stride = geom.stride;
  const auto& kern = simd::active();
  const float* src = images.data();
  if (geom.padding > 0 && !bordered) {
    // A plain input is copied into a zero-filled per-thread buffer, which
    // only grows.
    thread_local std::vector<float> buf;
    buf.assign(static_cast<std::size_t>(batch * sample), 0.0F);
    write_bordered(src, batch * geom.in_channels, geom, buf.data());
    src = buf.data();
  }
  const float* padd = nullptr;
  if (epilogue.channel_add != nullptr) {
    const Tensor& t = *epilogue.channel_add;
    DP_REQUIRE(t.rank() == 2 && t.dim(0) == batch && t.dim(1) == out_ch,
               "conv2d: channel add must be [N, O]");
    padd = t.data();
  }
  const float* pres = nullptr;
  if (epilogue.residual != nullptr) {
    const Tensor& r = *epilogue.residual;
    DP_REQUIRE(r.rank() == 4 && r.dim(0) == batch && r.dim(1) == out_ch &&
                   r.dim(2) == geometry.out_h() &&
                   r.dim(3) == geometry.out_w(),
               "conv2d: residual must be [N, O, OH, OW]");
    pres = r.data();
  }

  // Patch row kk = (c, ky, kx) starts koff[kk] past a column's window origin
  // in the bordered input, and at kk * 16 in a packed panel.
  thread_local std::vector<std::int64_t> koff_buf;
  koff_buf.resize(static_cast<std::size_t>(2 * kdim));
  std::int64_t* koff = koff_buf.data();
  std::int64_t* koff_panel = koff + kdim;
  for (std::int64_t c = 0, kk = 0; c < geom.in_channels; ++c) {
    for (std::int64_t ky = 0; ky < geom.kernel_h; ++ky) {
      for (std::int64_t kx = 0; kx < geom.kernel_w; ++kx, ++kk) {
        koff[kk] = c * plane + ky * wp + kx;
        koff_panel[kk] = kk * simd::kTileCols;
      }
    }
  }
  const float* pw = weight.data();
  const auto* has_zero = zero_flags(kern, pw, kdim, out_ch, kdim);
  const float* pbias = bias.data();

  // Stride 1 and whole 8-column runs per output row: each half strip is one
  // run of the bordered input, read in place. Otherwise the strip gathers
  // a panel, in runs of 4 where output rows are whole runs of 4.
  const bool direct_b = stride == 1 && ow % simd::kTileHalf == 0;
  const std::int64_t run = stride == 1 && ow % 4 == 0 ? 4 : 1;
  // Strips inside one sample accumulate straight into the output, which
  // starts at +0; others go through an accumulator block.
  const bool direct_c = n_out % simd::kTileCols == 0;
  Tensor out({batch, out_ch, geometry.out_h(), geometry.out_w()}, 0.0F);
  float* po = out.data();
  // One task per strip of 16 output columns (im2col column order: sample,
  // then output row, then output column). Each element is the im2col + GEMM
  // chain: fma over the patch rows k ascending from +0 (zero weights
  // skipped), then + bias, then the epilogue adds — so the bytes are those
  // of the composition.
  parallel_for(
      0, ceil_div(ncols, simd::kTileCols),
      [&](std::int64_t s0, std::int64_t s1) {
        // The K x 16 panel (L1-resident for K <= 576) and the O x 16
        // accumulator block when needed, in a per-thread buffer that only
        // grows: every entry is written before it is read.
        thread_local std::vector<float> scratch;
        const auto need = static_cast<std::size_t>(
            ((direct_b ? 0 : kdim) + (direct_c ? 0 : out_ch)) *
            simd::kTileCols);
        if (scratch.size() < need) {
          scratch.resize(need);
        }
        float* panel = scratch.data();
        float* acc = panel + (direct_b ? 0 : kdim * simd::kTileCols);
        // Sample, output row and output column of the next column, stepped
        // instead of divided.
        const auto p_begin = s0 * simd::kTileCols;
        std::int64_t n = p_begin / n_out;
        std::int64_t oy = p_begin % n_out / ow;
        std::int64_t ox = p_begin % ow;
        const auto step = [&](std::int64_t by) {
          ox += by;
          if (ox >= ow) {
            ox -= ow;
            if (++oy == oh) {
              oy = 0;
              ++n;
            }
          }
        };
        const auto origin = [&] {
          return n * sample + (oy * wp + ox) * stride;
        };
        for (std::int64_t s = s0; s < s1; ++s) {
          const auto p0 = s * simd::kTileCols;
          const auto width = std::min(simd::kTileCols, ncols - p0);
          // Sample and output offset of the strip's first column, for
          // direct_c.
          const auto n0 = n;
          const auto c0 = (n * out_ch) * n_out + oy * ow + ox;
          const float* b_lo = nullptr;
          const float* b_hi = nullptr;
          const std::int64_t* rows = koff;
          if (direct_b) {
            // A last strip of 8 columns reads its first run twice.
            b_lo = src + origin();
            step(simd::kTileHalf);
            b_hi = width > simd::kTileHalf ? src + origin() : b_lo;
            step(simd::kTileHalf);
          } else {
            // Columns past the end repeat the run before them (computed,
            // never written).
            std::int64_t off[simd::kTileCols] = {};
            for (std::int64_t j = 0; j < simd::kTileCols; ++j) {
              if (j < width) {
                off[j] = origin();
                step(1);
              } else {
                off[j] = off[j - run];
              }
            }
            if (run == 4) {
              gather_panel<4>(src, koff, kdim, off, panel);
            } else {
              gather_panel<1>(src, koff, kdim, off, panel);
            }
            b_lo = panel;
            b_hi = panel + simd::kTileHalf;
            rows = koff_panel;
          }
          if (direct_c) {
            float* c = po + c0;
            strip_accumulate(kern, pw, kdim, has_zero, b_lo, b_hi, rows, c,
                             n_out, out_ch, kdim);
            for (std::int64_t o = 0; o < out_ch; ++o, c += n_out) {
              const float bo = pbias[o];
              const float to = padd == nullptr ? 0.0F : padd[n0 * out_ch + o];
              const float* r =
                  pres == nullptr ? nullptr : pres + c0 + o * n_out;
              for (std::int64_t j = 0; j < simd::kTileCols; ++j) {
                float v = c[j] + bo;
                if (padd != nullptr) {
                  v += to;
                }
                if (r != nullptr) {
                  v += r[j];
                }
                c[j] = v;
              }
            }
            continue;
          }
          std::fill_n(acc, out_ch * simd::kTileCols, 0.0F);
          strip_accumulate(kern, pw, kdim, has_zero, b_lo, b_hi, rows, acc,
                           simd::kTileCols, out_ch, kdim);
          // acc + bias (+ the epilogue) into [N, O, OH, OW], one run per
          // sample.
          for (std::int64_t j = 0; j < width;) {
            const auto p = p0 + j;
            const auto pn = p / n_out;
            const auto q = p % n_out;
            const auto len = std::min(width - j, n_out - q);
            for (std::int64_t o = 0; o < out_ch; ++o) {
              const auto at = (pn * out_ch + o) * n_out + q;
              kern.shift(po + at, acc + o * simd::kTileCols + j, pbias[o],
                         len);
              if (padd != nullptr) {
                kern.shift(po + at, po + at, padd[pn * out_ch + o], len);
              }
              if (pres != nullptr) {
                kern.add(po + at, pres + at, len);
              }
            }
            j += len;
          }
        }
      },
      work_grain(kdim * simd::kTileCols * out_ch, kGemmGrainFlops));
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

}  // namespace diffpattern::tensor
