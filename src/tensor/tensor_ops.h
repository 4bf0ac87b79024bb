// Raw numeric kernels over Tensor: GEMM, direct convolution, im2col/col2im,
// reductions.
//
// These are the non-differentiable building blocks; gradient bookkeeping is
// layered on top in src/nn. The GEMM family, the convolution forward and
// the batch-wide unrolls run blocked and parallel on the process-wide
// compute pool
// (src/tensor/parallel.h), with the inner loops routed through the
// runtime-dispatched SIMD kernel tier (src/tensor/simd.h: scalar and
// AVX2/FMA). Every kernel keeps the canonical fused accumulation order defined
// by the scalar backend, so results are byte-identical for any thread count
// and any backend. The original single-threaded mul-then-add kernels live
// on as the test oracle tensor::reference
// (tests/support/reference_kernels.h); the canonical fused kernels agree
// with them within a small ULP bound (tests/test_simd_kernels.cpp), not
// bitwise.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace diffpattern::tensor {

/// C[M,N] = A[M,K] * B[K,N].
Tensor matmul(const Tensor& a, const Tensor& b);

/// C[M,N] = A[M,K] * B[K,N] written into `out` (shape-checked, zeroed
/// first) — the allocation-free form for scratch-buffer reuse.
void matmul_into(const Tensor& a, const Tensor& b, Tensor& out);

/// C[M,N] += A[M,K] * B[K,N] accumulated into `out` (shapes must match).
void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& out);

/// C[m,n] += A[m,k] * B[k,n] over row-major pointers with row strides lda,
/// ldb, ldc, on the calling thread: 4x16 register tiles (simd gemm_tile,
/// with each 4-row block of A scanned for zeros once per call), ragged rows
/// and columns through axpy. Each element is the canonical chain
/// fma(a_ik, b_kj, c), k ascending, zero A entries skipped — the kernel
/// under matmul_accumulate and bmm; conv2d drives the same tiles itself.
void gemm_accumulate(const float* a, std::int64_t lda, const float* b,
                     std::int64_t ldb, float* c, std::int64_t ldc,
                     std::int64_t m, std::int64_t n, std::int64_t k);

/// C[K,N] = A[M,K]^T * B[M,N].
Tensor matmul_transpose_a(const Tensor& a, const Tensor& b);

/// C[M,K] = A[M,N] * B[K,N]^T: every element one canonical lane-split dot,
/// in simd dot tiles.
Tensor matmul_transpose_b(const Tensor& a, const Tensor& b);

/// matmul_transpose_b over packed row-major pointers (c[m,k] from a[m,n]
/// and b[k,n]) on the calling thread — the bmm input gradient.
void gemm_transpose_b(const float* a, const float* b, float* c,
                      std::int64_t m, std::int64_t k, std::int64_t n);

struct Conv2dGeometry {
  std::int64_t in_channels = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t stride = 1;
  std::int64_t padding = 0;

  std::int64_t out_h() const {
    return (in_h + 2 * padding - kernel_h) / stride + 1;
  }
  std::int64_t out_w() const {
    return (in_w + 2 * padding - kernel_w) / stride + 1;
  }
  std::int64_t patch_size() const { return in_channels * kernel_h * kernel_w; }
};

/// Batch-wide unroll: [N,C,H,W] -> [C*kh*kw, N*OH*OW], sample-major columns
/// (sample n owns columns [n*OH*OW, (n+1)*OH*OW)); out-of-bounds (padding)
/// positions contribute zeros. One matmul against the flattened conv
/// weight then convolves the whole batch; each sample's column block
/// depends on that sample alone, so batched convolution is bit-equal to a
/// batch of one per sample.
Tensor im2col_batch(const Tensor& images, const Conv2dGeometry& geom);

/// Zero-filled [batch, C, H+2p, W+2p] for the conv `geom` (C, H, W and p
/// from geom): the layout conv2d pads a plain input into. The op before a
/// padded conv writes its output into one on inference paths (see
/// write_bordered), and the conv reads it in place.
Tensor bordered_input(std::int64_t batch, const Conv2dGeometry& geom);

/// Writes `planes` consecutive in_h x in_w planes into the interiors of
/// consecutive planes of a bordered_input; the border stays zero.
void write_bordered(const float* src, std::int64_t planes,
                    const Conv2dGeometry& geom, float* dst);

/// What conv2d adds to each output element after the bias, as
/// (acc + bias) + e: a per-(sample, channel) row [N, O] (a time
/// embedding), then a residual [N, O, OH, OW]. The same float ops as a
/// separate add after the conv.
struct ConvEpilogue {
  const Tensor* channel_add = nullptr;
  const Tensor* residual = nullptr;
};

/// Convolution forward: images [N,C,H,W] — or a bordered_input when
/// `bordered` — weight [O, C*kh*kw] (any shape with that element count,
/// e.g. [O,C,kh,kw]), bias [O] -> [N,O,OH,OW], plus the epilogue. Bitwise
/// the composition im2col_batch + matmul + bias (+ the epilogue adds),
/// without the column buffer. Once per call: a plain padded input is
/// copied into a zero-filled per-thread buffer (write_bordered), a k-offset
/// table is built and each 4-row weight block is scanned for zeros. Each strip of 16
/// output columns then runs the register tiles over every output channel.
/// A stride-1 conv whose output rows are whole runs of 8 (the U-Net's 8x8
/// level, and every 1x1 stride-1 conv, whose planes count as one row)
/// feeds the tiles straight from the bordered input; other convs gather a
/// K x 16 panel per strip (in runs of 4 where the rows allow). Strips inside
/// one sample accumulate into the output in place. Strips are the parallel
/// unit.
Tensor conv2d(const Tensor& images, const Tensor& weight, const Tensor& bias,
              const Conv2dGeometry& geom, bool bordered = false,
              const ConvEpilogue& epilogue = {});

/// Adjoint of im2col_batch: folds [C*kh*kw, N*OH*OW] back into [N,C,H,W],
/// one independent (parallel) fold per sample, accumulating overlapping
/// contributions.
Tensor col2im_batch(const Tensor& columns, const Conv2dGeometry& geom,
                    std::int64_t batch);

/// Sum of all elements (sequential double accumulation — deterministic).
double sum(const Tensor& t);

/// out[i] = a[i] + b[i] (shapes must match).
Tensor add(const Tensor& a, const Tensor& b);

/// out[i] = a[i] * b[i] (shapes must match).
Tensor mul(const Tensor& a, const Tensor& b);

/// out[i] = a[i] * s.
Tensor scale(const Tensor& a, float s);

/// Numerically stable row-wise softmax over the last axis of a 2-D tensor.
Tensor softmax_rows(const Tensor& logits);

}  // namespace diffpattern::tensor
