#include "layout/deep_squish.h"

#include <cmath>

#include "common/contracts.h"

namespace diffpattern::layout {

using geometry::BinaryGrid;
using tensor::Tensor;

std::int64_t DeepSquishConfig::patch_side() const {
  const auto side =
      static_cast<std::int64_t>(std::llround(std::sqrt(
          static_cast<double>(channels))));
  DP_REQUIRE(side * side == channels,
             "DeepSquishConfig: channels must be a perfect square, got " +
                 std::to_string(channels));
  return side;
}

Tensor fold_topology(const BinaryGrid& grid, const DeepSquishConfig& config) {
  const auto p = config.patch_side();
  DP_REQUIRE(grid.rows() % p == 0 && grid.cols() % p == 0,
             "fold_topology: grid side not divisible by patch side");
  DP_REQUIRE(grid.rows() == grid.cols(),
             "fold_topology: topology matrix must be square");
  const auto m_rows = grid.rows() / p;
  const auto m_cols = grid.cols() / p;
  Tensor out({config.channels, m_rows, m_cols});
  for (std::int64_t c = 0; c < config.channels; ++c) {
    const auto pr = c / p;
    const auto pc = c % p;
    for (std::int64_t i = 0; i < m_rows; ++i) {
      for (std::int64_t j = 0; j < m_cols; ++j) {
        out.at({c, i, j}) = static_cast<float>(
            grid.get_unchecked(i * p + pr, j * p + pc));
      }
    }
  }
  return out;
}

BinaryGrid unfold_topology(const Tensor& folded,
                           const DeepSquishConfig& config) {
  DP_REQUIRE(folded.rank() == 3, "unfold_topology: expected [C,M,M]");
  DP_REQUIRE(folded.dim(0) == config.channels,
             "unfold_topology: channel mismatch");
  const auto p = config.patch_side();
  const auto m_rows = folded.dim(1);
  const auto m_cols = folded.dim(2);
  BinaryGrid grid(m_rows * p, m_cols * p);
  for (std::int64_t c = 0; c < config.channels; ++c) {
    const auto pr = c / p;
    const auto pc = c % p;
    for (std::int64_t i = 0; i < m_rows; ++i) {
      for (std::int64_t j = 0; j < m_cols; ++j) {
        const float v = folded.at({c, i, j});
        DP_REQUIRE(v == 0.0F || v == 1.0F,
                   "unfold_topology: tensor entries must be binary");
        grid.set(i * p + pr, j * p + pc, v != 0.0F ? 1 : 0);
      }
    }
  }
  return grid;
}

Tensor fold_batch(const std::vector<BinaryGrid>& grids,
                  const DeepSquishConfig& config) {
  DP_REQUIRE(!grids.empty(), "fold_batch: empty batch");
  Tensor first = fold_topology(grids.front(), config);
  const auto c = first.dim(0);
  const auto h = first.dim(1);
  const auto w = first.dim(2);
  Tensor out({static_cast<std::int64_t>(grids.size()), c, h, w});
  std::copy(first.data(), first.data() + first.numel(), out.data());
  for (std::size_t i = 1; i < grids.size(); ++i) {
    Tensor folded = fold_topology(grids[i], config);
    DP_REQUIRE(folded.dim(1) == h && folded.dim(2) == w,
               "fold_batch: inconsistent grid sizes in batch");
    std::copy(folded.data(), folded.data() + folded.numel(),
              out.data() + static_cast<std::int64_t>(i) * folded.numel());
  }
  return out;
}

}  // namespace diffpattern::layout
