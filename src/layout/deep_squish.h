// Deep Squish Pattern representation (paper Sec. III-B).
//
// Folds a (sqrt(C)*M) x (sqrt(C)*M) binary topology matrix into a C x M x M
// binary tensor by moving each sqrt(C) x sqrt(C) patch into the channel
// dimension (space-to-depth). Every channel carries equal weight — unlike
// the "naive concatenating" alternative that packs a patch into one integer
// in [0, 2^C), giving bit i a weight of 2^i and an exponentially growing
// state space (the paper's Fig. 5 argument). Only the deep squish encoding
// is implemented; bench_fig5_deepsquish reports the naive state count as
// 2^C without encoding anything.
#pragma once

#include <cstdint>

#include "geometry/grid.h"
#include "tensor/tensor.h"

namespace diffpattern::layout {

/// Channel count C must be a perfect square (patch side sqrt(C)); the grid
/// side must be divisible by sqrt(C).
struct DeepSquishConfig {
  std::int64_t channels = 4;

  std::int64_t patch_side() const;
};

/// Folds a topology matrix into a [C, M, M] float tensor with entries in
/// {0, 1}. Channel c holds patch cell (c / p, c % p) with p = patch_side.
tensor::Tensor fold_topology(const geometry::BinaryGrid& grid,
                             const DeepSquishConfig& config);

/// Inverse of fold_topology.
geometry::BinaryGrid unfold_topology(const tensor::Tensor& folded,
                                     const DeepSquishConfig& config);

/// Folds a batch of identical-size grids into an [N, C, M, M] tensor.
tensor::Tensor fold_batch(const std::vector<geometry::BinaryGrid>& grids,
                          const DeepSquishConfig& config);

}  // namespace diffpattern::layout
