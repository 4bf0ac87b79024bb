// Binary occupancy grid: the raw form of a squish-pattern topology matrix.
//
// Entry semantics follow the paper's squish representation: 1 = shape
// (polygon interior), 0 = space. Row index is the y axis (row 0 at the
// bottom of the layout), column index is the x axis.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace diffpattern::geometry {

class BinaryGrid {
 public:
  BinaryGrid() = default;
  BinaryGrid(std::int64_t rows, std::int64_t cols, std::uint8_t fill = 0);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t cell_count() const { return rows_ * cols_; }
  bool empty() const { return cells_.empty(); }

  void set(std::int64_t row, std::int64_t col, std::uint8_t value);

  /// Unchecked access for hot loops.
  std::uint8_t get_unchecked(std::int64_t row, std::int64_t col) const {
    return cells_[static_cast<std::size_t>(row * cols_ + col)];
  }

  const std::vector<std::uint8_t>& cells() const { return cells_; }

  /// Number of 1-cells.
  std::int64_t popcount() const;

  /// Multi-line ASCII rendering ('#' = shape, '.' = space), top row first.
  std::string to_ascii() const;

  friend bool operator==(const BinaryGrid&, const BinaryGrid&) = default;

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<std::uint8_t> cells_;
};

/// Detects the "bow-tie" defect: two diagonal 1-cells meeting two diagonal
/// 0-cells in a 2x2 window, i.e. polygons touching at a single point. Such
/// topologies are rejected by the pre-filter (paper Sec. III-C).
bool has_bowtie(const BinaryGrid& grid);

/// Horizontal mirror (flips columns) and transpose, used by the data
/// augmentation in the dataset builder.
BinaryGrid mirrored_horizontal(const BinaryGrid& grid);
BinaryGrid transposed(const BinaryGrid& grid);

}  // namespace diffpattern::geometry
