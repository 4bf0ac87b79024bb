#include "geometry/grid.h"

#include <limits>

#include "common/contracts.h"

namespace diffpattern::geometry {

namespace {

/// rows * cols, checked before anything is allocated: a negative or
/// overflowing product would otherwise size the cell vector wrongly.
std::size_t checked_cell_count(std::int64_t rows, std::int64_t cols) {
  DP_REQUIRE(rows >= 0 && cols >= 0, "BinaryGrid: negative dimensions");
  DP_REQUIRE(cols == 0 ||
                 rows <= std::numeric_limits<std::int64_t>::max() / cols,
             "BinaryGrid: " + std::to_string(rows) + " x " +
                 std::to_string(cols) + " cells overflow");
  return static_cast<std::size_t>(rows * cols);
}

}  // namespace

BinaryGrid::BinaryGrid(std::int64_t rows, std::int64_t cols, std::uint8_t fill)
    : rows_(rows), cols_(cols), cells_(checked_cell_count(rows, cols), fill) {
  DP_REQUIRE(fill <= 1, "BinaryGrid: cells are binary");
}

void BinaryGrid::set(std::int64_t row, std::int64_t col, std::uint8_t value) {
  DP_REQUIRE(row >= 0 && row < rows_ && col >= 0 && col < cols_,
             "BinaryGrid::set: index out of bounds");
  DP_REQUIRE(value <= 1, "BinaryGrid::set: cells are binary");
  cells_[static_cast<std::size_t>(row * cols_ + col)] = value;
}

std::int64_t BinaryGrid::popcount() const {
  std::int64_t n = 0;
  for (const auto c : cells_) {
    n += c;
  }
  return n;
}

std::string BinaryGrid::to_ascii() const {
  std::string out;
  out.reserve(static_cast<std::size_t>((cols_ + 1) * rows_));
  for (std::int64_t r = rows_ - 1; r >= 0; --r) {
    for (std::int64_t c = 0; c < cols_; ++c) {
      out.push_back(get_unchecked(r, c) != 0 ? '#' : '.');
    }
    out.push_back('\n');
  }
  return out;
}

bool has_bowtie(const BinaryGrid& grid) {
  for (std::int64_t r = 0; r + 1 < grid.rows(); ++r) {
    for (std::int64_t c = 0; c + 1 < grid.cols(); ++c) {
      const auto a = grid.get_unchecked(r, c);
      const auto b = grid.get_unchecked(r, c + 1);
      const auto d = grid.get_unchecked(r + 1, c);
      const auto e = grid.get_unchecked(r + 1, c + 1);
      if ((a == 1 && e == 1 && b == 0 && d == 0) ||
          (b == 1 && d == 1 && a == 0 && e == 0)) {
        return true;
      }
    }
  }
  return false;
}

BinaryGrid mirrored_horizontal(const BinaryGrid& grid) {
  BinaryGrid out(grid.rows(), grid.cols());
  for (std::int64_t r = 0; r < grid.rows(); ++r) {
    for (std::int64_t c = 0; c < grid.cols(); ++c) {
      out.set(r, grid.cols() - 1 - c, grid.get_unchecked(r, c));
    }
  }
  return out;
}

BinaryGrid transposed(const BinaryGrid& grid) {
  BinaryGrid out(grid.cols(), grid.rows());
  for (std::int64_t r = 0; r < grid.rows(); ++r) {
    for (std::int64_t c = 0; c < grid.cols(); ++c) {
      out.set(c, r, grid.get_unchecked(r, c));
    }
  }
  return out;
}

}  // namespace diffpattern::geometry
