// Differentiable operations over Var.
//
// Every function builds a graph node whose backward closure scatters
// gradients into its operands. Operands named `const Tensor&` are treated as
// constants (no gradient flows into them); this is how the diffusion loss
// mixes fixed transition-matrix coefficients with network outputs.
//
// All ops are verified against central-difference numerical gradients in
// tests/test_nn_gradcheck.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "nn/autograd.h"

namespace diffpattern::nn {

// ---- arithmetic ----------------------------------------------------------
Var add(const Var& a, const Var& b);
Var sub(const Var& a, const Var& b);
Var mul(const Var& a, const Var& b);
Var neg(const Var& a);
Var scale(const Var& a, float s);
Var add_scalar(const Var& a, float s);
/// Element-wise product with a constant tensor (no grad into `c`).
Var mul_const(const Var& a, const Tensor& c);
/// Element-wise sum with a constant tensor (no grad into `c`).
Var add_const(const Var& a, const Tensor& c);

// ---- activations ---------------------------------------------------------
Var relu(const Var& a);
Var sigmoid(const Var& a);
Var silu(const Var& a);
Var gelu(const Var& a);
/// Numerically stable softplus: log(1 + exp(x)).
Var softplus(const Var& a);
/// log(max(x, eps)); gradient is zero where the clamp is active.
Var log_clamped(const Var& a, float eps = 1e-12F);

// ---- shape ---------------------------------------------------------------
Var reshape(const Var& a, Shape shape);
/// General axis permutation (transpose); `dims` is a permutation of axes.
Var permute(const Var& a, std::vector<std::int64_t> dims);
/// x[N,C,H,W] -> x[N,count,H,W] taking channels [c0, c0+count).
Var slice_channels(const Var& x, std::int64_t c0, std::int64_t count);
/// Concatenation along the channel axis of two [N,C,H,W] tensors.
Var concat_channels(const Var& a, const Var& b);
/// x[N,C,H,W] + bias[N,C] broadcast over the spatial axes (time-embedding
/// injection in residual blocks).
Var add_spatial_broadcast(const Var& x, const Var& bias_nc);
/// Stops gradient flow: returns a leaf holding a copy of the value.
Var detach(const Var& a);

// ---- linear algebra ------------------------------------------------------
/// Batched matmul: [B,M,K] x [B,K,N] -> [B,M,N].
Var bmm(const Var& a, const Var& b);
/// y = x * w^T + b with x:[N,Fin], w:[Fout,Fin], b:[Fout].
Var linear(const Var& x, const Var& w, const Var& b);
/// 2-D convolution, x:[N,C,H,W], w:[O,C,kh,kw], b:[O].
Var conv2d(const Var& x, const Var& w, const Var& b, std::int64_t stride,
           std::int64_t padding);

/// A conv input as the op before the conv wrote it. Inside a NoGradGuard
/// that op writes a padded conv's input with the zero border in place
/// (`bordered`: [N, C, H+2p, W+2p], see tensor::bordered_input), and the
/// conv reads it as it is; otherwise, and from a plain Var, it is
/// [N, C, H, W].
struct ConvInput {
  ConvInput() = default;
  ConvInput(Var v, bool b = false)  // NOLINT: implicit by design (plain)
      : x(std::move(v)), bordered(b) {}

  Var x;
  bool bordered = false;
};

/// What a conv adds after its bias: a time-embedding row [N, O] broadcast
/// over the plane, then a residual [N, O, OH, OW].
struct ConvEpilogue {
  const Var* channel_add = nullptr;
  const Var* residual = nullptr;
};

/// conv2d of a prepared input, then the epilogue. With a graph this is
/// conv2d, add_spatial_broadcast and add; without one the conv reads the
/// input in place and adds the epilogue per output strip as
/// (acc + bias) + e — the same bytes.
Var conv2d(const ConvInput& x, const Var& w, const Var& b, std::int64_t stride,
           std::int64_t padding, const ConvEpilogue& epilogue);

// ---- normalization -------------------------------------------------------
/// GroupNorm over [N,C,H,W] with per-channel affine (gamma, beta of [C]).
Var group_norm(const Var& x, const Var& gamma, const Var& beta,
               std::int64_t groups, float eps = 1e-5F);
/// silu(group_norm(x)) as the input of a conv with padding `pad`. With a
/// graph this is exactly the two ops. Without one it is one pass over each
/// block of groups — normalize, SiLU, then the planes into the conv's
/// bordered input — with the same bytes and none of the intermediate
/// tensors.
ConvInput group_norm_silu(const Var& x, const Var& gamma, const Var& beta,
                          std::int64_t groups, std::int64_t pad,
                          float eps = 1e-5F);
/// LayerNorm over the last axis with affine parameters of that axis length.
Var layer_norm(const Var& x, const Var& gamma, const Var& beta,
               float eps = 1e-5F);

// ---- softmax / reductions ------------------------------------------------
/// Softmax over the last axis (any rank >= 1).
Var softmax_last(const Var& a);
Var sum_all(const Var& a);
Var mean_all(const Var& a);

// ---- resize --------------------------------------------------------------
/// Nearest-neighbour 2x upsampling of [N,C,H,W].
Var upsample_nearest2(const Var& x);
/// upsample_nearest2 as the input of a conv with padding `pad` (see
/// ConvInput).
ConvInput upsample_nearest2(const Var& x, std::int64_t pad);

// ---- regularization / lookup ---------------------------------------------
/// Inverted dropout; identity when !training or p == 0.
Var dropout(const Var& x, float p, bool training, common::Rng& rng);
/// Row gather: table:[V,D], ids of length T -> [T,D].
Var embedding_lookup(const Var& table, const std::vector<std::int64_t>& ids);

}  // namespace diffpattern::nn
