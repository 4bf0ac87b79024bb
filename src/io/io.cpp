#include "io/io.h"

#include <filesystem>
#include <fstream>

#include "common/contracts.h"

namespace diffpattern::io {

using geometry::BinaryGrid;
using layout::SquishPattern;

namespace {

constexpr std::uint8_t kShapeGray = 40;
constexpr std::uint8_t kSpaceGray = 230;

void write_pgm(const std::string& path, std::int64_t width,
               std::int64_t height, const std::vector<std::uint8_t>& pixels) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("write_pgm: cannot open " + path);
  }
  out << "P5\n" << width << ' ' << height << "\n255\n";
  out.write(reinterpret_cast<const char*>(pixels.data()),
            static_cast<std::streamsize>(pixels.size()));
  if (!out) {
    throw std::runtime_error("write_pgm: write failed for " + path);
  }
}

void write_u64(std::ofstream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::ifstream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) {
    throw std::runtime_error("pattern library: truncated file");
  }
  return v;
}

/// Bytes from the read position to the end of the file.
std::uint64_t bytes_left(std::ifstream& in) {
  const auto here = in.tellg();
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(here);
  return static_cast<std::uint64_t>(end - here);
}

}  // namespace

void write_grid_pgm(const std::string& path, const BinaryGrid& grid,
                    std::int64_t cell_px) {
  DP_REQUIRE(cell_px >= 1, "write_grid_pgm: cell_px must be >= 1");
  const auto width = grid.cols() * cell_px;
  const auto height = grid.rows() * cell_px;
  std::vector<std::uint8_t> pixels(
      static_cast<std::size_t>(width * height), kSpaceGray);
  for (std::int64_t r = 0; r < grid.rows(); ++r) {
    for (std::int64_t c = 0; c < grid.cols(); ++c) {
      if (grid.get_unchecked(r, c) == 0) {
        continue;
      }
      // Image row 0 is the top; grid row 0 is the bottom.
      for (std::int64_t py = 0; py < cell_px; ++py) {
        const auto iy = (grid.rows() - 1 - r) * cell_px + py;
        for (std::int64_t px = 0; px < cell_px; ++px) {
          pixels[static_cast<std::size_t>(iy * width + c * cell_px + px)] =
              kShapeGray;
        }
      }
    }
  }
  write_pgm(path, width, height, pixels);
}

void write_pattern_pgm(const std::string& path, const SquishPattern& pattern,
                       std::int64_t image_px) {
  pattern.validate();
  DP_REQUIRE(image_px >= 8, "write_pattern_pgm: image too small");
  const auto tile_w = pattern.width();
  const auto tile_h = pattern.height();
  std::vector<std::uint8_t> pixels(
      static_cast<std::size_t>(image_px * image_px), kSpaceGray);
  // nm borders of cells.
  std::vector<geometry::Coord> xs(pattern.dx.size() + 1, 0);
  for (std::size_t i = 0; i < pattern.dx.size(); ++i) {
    xs[i + 1] = xs[i] + pattern.dx[i];
  }
  std::vector<geometry::Coord> ys(pattern.dy.size() + 1, 0);
  for (std::size_t i = 0; i < pattern.dy.size(); ++i) {
    ys[i + 1] = ys[i] + pattern.dy[i];
  }
  const auto to_px_x = [&](geometry::Coord nm) {
    return std::min<std::int64_t>(image_px - 1, nm * image_px / tile_w);
  };
  const auto to_px_y = [&](geometry::Coord nm) {
    return std::min<std::int64_t>(image_px - 1, nm * image_px / tile_h);
  };
  for (std::int64_t r = 0; r < pattern.topology.rows(); ++r) {
    for (std::int64_t c = 0; c < pattern.topology.cols(); ++c) {
      if (pattern.topology.get_unchecked(r, c) == 0) {
        continue;
      }
      const auto px0 = to_px_x(xs[static_cast<std::size_t>(c)]);
      const auto px1 = to_px_x(xs[static_cast<std::size_t>(c + 1)]);
      const auto py0 = to_px_y(ys[static_cast<std::size_t>(r)]);
      const auto py1 = to_px_y(ys[static_cast<std::size_t>(r + 1)]);
      for (std::int64_t y = py0; y <= py1; ++y) {
        const auto iy = image_px - 1 - y;  // Flip vertically for the image.
        for (std::int64_t x = px0; x <= px1; ++x) {
          pixels[static_cast<std::size_t>(iy * image_px + x)] = kShapeGray;
        }
      }
    }
  }
  write_pgm(path, image_px, image_px, pixels);
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("write_text_file: cannot open " + path);
  }
  out << content;
  if (!out) {
    throw std::runtime_error("write_text_file: write failed for " + path);
  }
}

void save_pattern_library(const std::string& path,
                          const std::vector<SquishPattern>& patterns) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("save_pattern_library: cannot open " + path);
  }
  out.write("DPLIB01\0", 8);
  write_u64(out, patterns.size());
  for (const auto& p : patterns) {
    p.validate();
    write_u64(out, static_cast<std::uint64_t>(p.topology.rows()));
    write_u64(out, static_cast<std::uint64_t>(p.topology.cols()));
    for (const auto cell : p.topology.cells()) {
      out.put(static_cast<char>(cell));
    }
    for (const auto d : p.dx) {
      write_u64(out, static_cast<std::uint64_t>(d));
    }
    for (const auto d : p.dy) {
      write_u64(out, static_cast<std::uint64_t>(d));
    }
  }
  if (!out) {
    throw std::runtime_error("save_pattern_library: write failed");
  }
}

std::vector<SquishPattern> load_pattern_library(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_pattern_library: cannot open " + path);
  }
  char magic[8];
  in.read(magic, 8);
  if (!in || std::string(magic, 7) != "DPLIB01") {
    throw std::runtime_error("load_pattern_library: bad magic");
  }
  // Every count and dimension is checked against the bytes left in the
  // file before anything is allocated for it.
  const auto count = read_u64(in);
  if (count > bytes_left(in) / 16) {  // u64 rows + u64 cols per pattern.
    throw std::runtime_error("load_pattern_library: " +
                             std::to_string(count) +
                             " patterns claimed, more than the file holds");
  }
  std::vector<SquishPattern> patterns;
  patterns.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto claimed_rows = read_u64(in);
    const auto claimed_cols = read_u64(in);
    // A pattern stores rows * cols cell bytes, then cols + rows u64 deltas.
    const auto left = bytes_left(in);
    const bool fits =
        claimed_rows <= left / 8 && claimed_cols <= left / 8 &&
        8 * (claimed_rows + claimed_cols) <= left &&
        (claimed_cols == 0 ||
         claimed_rows <=
             (left - 8 * (claimed_rows + claimed_cols)) / claimed_cols);
    if (!fits) {
      throw std::runtime_error(
          "load_pattern_library: pattern " + std::to_string(i) + " claims " +
          std::to_string(claimed_rows) + " x " +
          std::to_string(claimed_cols) + " cells, more than the " +
          std::to_string(left) + " bytes left in the file");
    }
    const auto rows = static_cast<std::int64_t>(claimed_rows);
    const auto cols = static_cast<std::int64_t>(claimed_cols);
    SquishPattern p;
    p.topology = BinaryGrid(rows, cols);
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t c = 0; c < cols; ++c) {
        const int v = in.get();
        if (v < 0) {
          throw std::runtime_error("load_pattern_library: truncated");
        }
        p.topology.set(r, c, static_cast<std::uint8_t>(v));
      }
    }
    p.dx.resize(static_cast<std::size_t>(cols));
    for (auto& d : p.dx) {
      d = static_cast<geometry::Coord>(read_u64(in));
    }
    p.dy.resize(static_cast<std::size_t>(rows));
    for (auto& d : p.dy) {
      d = static_cast<geometry::Coord>(read_u64(in));
    }
    p.validate();
    patterns.push_back(std::move(p));
  }
  return patterns;
}

std::string ensure_directory(const std::string& path) {
  std::filesystem::create_directories(path);
  return path;
}

}  // namespace diffpattern::io
