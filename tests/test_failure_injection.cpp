// Failure injection: truncated and corrupted on-disk artifacts must be
// rejected with exceptions, never silently mis-parsed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/io.h"
#include "layout/squish.h"
#include "nn/checkpoint.h"
#include "nn/modules.h"

namespace dio = diffpattern::io;
namespace dl = diffpattern::layout;
namespace dg = diffpattern::geometry;
namespace nn = diffpattern::nn;
namespace dc = diffpattern::common;

namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<char> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void write_all(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string make_library_file() {
  dl::Layout l;
  l.width = 100;
  l.height = 100;
  l.rects.push_back(dg::Rect{10, 10, 60, 40});
  const auto path = temp_path("dp_fi_library.bin");
  dio::save_pattern_library(path, {dl::extract_squish(l),
                                   dl::extract_squish(l)});
  return path;
}

/// Overwrites the little-endian u64 at `offset`.
void put_u64(std::vector<char>& bytes, std::size_t offset,
             std::uint64_t value) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

/// A pattern-library file with a hostile header: magic, count, rows,
/// cols, then `tail` zero bytes.
std::string write_library_header(const std::string& name,
                                  std::uint64_t count, std::uint64_t rows,
                                  std::uint64_t cols, std::size_t tail) {
  std::vector<char> bytes(32 + tail, 0);
  const char magic[] = "DPLIB01";
  std::copy(magic, magic + 8, bytes.begin());
  put_u64(bytes, 8, count);
  put_u64(bytes, 16, rows);
  put_u64(bytes, 24, cols);
  const auto path = temp_path(name);
  write_all(path, bytes);
  return path;
}

/// Message of the std::runtime_error `load` throws ("" if it throws none).
template <class Load>
std::string runtime_error_message(Load&& load) {
  try {
    load();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

std::string make_checkpoint_file(nn::ParamRegistry& registry) {
  dc::Rng rng(3);
  const auto path = temp_path("dp_fi_ckpt.bin");
  nn::save_checkpoint(registry, path);
  return path;
}

}  // namespace

class LibraryTruncation : public ::testing::TestWithParam<double> {};

TEST_P(LibraryTruncation, TruncatedFileThrows) {
  const auto path = make_library_file();
  const auto bytes = read_all(path);
  ASSERT_GT(bytes.size(), 16U);
  const auto cut = static_cast<std::size_t>(
      static_cast<double>(bytes.size()) * GetParam());
  const auto trunc_path = temp_path("dp_fi_library_trunc.bin");
  write_all(trunc_path,
            std::vector<char>(bytes.begin(),
                              bytes.begin() + static_cast<std::ptrdiff_t>(
                                                  std::max<std::size_t>(cut, 1))));
  EXPECT_THROW(dio::load_pattern_library(trunc_path), std::exception);
  std::remove(path.c_str());
  std::remove(trunc_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(CutPoints, LibraryTruncation,
                         ::testing::Values(0.05, 0.2, 0.5, 0.75, 0.95, 0.999));

TEST(LibraryCorruption, FlippedMagicRejected) {
  const auto path = make_library_file();
  auto bytes = read_all(path);
  bytes[0] ^= 0x40;
  write_all(path, bytes);
  EXPECT_THROW(dio::load_pattern_library(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(LibraryCorruption, AbsurdCountRejected) {
  const auto path = make_library_file();
  auto bytes = read_all(path);
  // Pattern count lives right after the 8-byte magic; blow it up.
  for (int i = 8; i < 16; ++i) {
    bytes[static_cast<std::size_t>(i)] = static_cast<char>(0xFF);
  }
  write_all(path, bytes);
  // Rejected against the bytes left before the pattern vector is sized.
  const auto message =
      runtime_error_message([&] { dio::load_pattern_library(path); });
  EXPECT_NE(message.find("patterns claimed, more than the file holds"),
            std::string::npos)
      << message;
  std::remove(path.c_str());
}

// Hostile headers: every count and dimension is checked against the bytes
// left in the file before anything is allocated for it.

TEST(LibraryCorruption, OverflowingDimensionsRejected) {
  // 48 bytes claiming 2^32 x 2^32 cells: rows * cols must not wrap to an
  // empty grid that the first cell write goes through.
  const auto path = write_library_header(
      "dp_fi_lib_overflow.bin", 1, std::uint64_t{1} << 32,
      std::uint64_t{1} << 32, 16);
  const auto message =
      runtime_error_message([&] { dio::load_pattern_library(path); });
  EXPECT_NE(message.find("claims 4294967296 x 4294967296 cells"),
            std::string::npos)
      << message;
  std::remove(path.c_str());
}

TEST(LibraryCorruption, DimensionsBeyondFileRejectedBeforeAllocating) {
  // 32 bytes claiming 10 000 x 10 000 cells: rejected before ~100 MB of
  // cells are allocated, not when the read runs out.
  const auto path =
      write_library_header("dp_fi_lib_large.bin", 1, 10000, 10000, 0);
  const auto message =
      runtime_error_message([&] { dio::load_pattern_library(path); });
  EXPECT_NE(message.find("claims 10000 x 10000 cells, more than the 0 "
                         "bytes left"),
            std::string::npos)
      << message;
  std::remove(path.c_str());
}

TEST(CheckpointCorruption, NameLengthBeyondFileRejected) {
  dc::Rng rng(13);
  nn::ParamRegistry reg;
  nn::Linear lin(reg, rng, "lin", 4, 4);
  const auto path = make_checkpoint_file(reg);
  auto bytes = read_all(path);
  put_u64(bytes, 16, std::uint64_t{1} << 62);  // First name length.
  write_all(path, bytes);
  const auto message =
      runtime_error_message([&] { nn::load_checkpoint(reg, path); });
  EXPECT_NE(message.find("-byte name, more than the file holds"),
            std::string::npos)
      << message;
  std::remove(path.c_str());
}

TEST(CheckpointCorruption, RankBeyondFileRejected) {
  dc::Rng rng(14);
  nn::ParamRegistry reg;
  nn::Linear lin(reg, rng, "lin", 4, 4);
  const auto path = make_checkpoint_file(reg);
  auto bytes = read_all(path);
  // Magic, count and name length, then the name, then the first rank.
  const auto rank_offset = 24 + reg.names()[0].size();
  put_u64(bytes, rank_offset, std::uint64_t{1} << 61);
  write_all(path, bytes);
  const auto message =
      runtime_error_message([&] { nn::load_checkpoint(reg, path); });
  EXPECT_NE(message.find("claims rank 2305843009213693952, more than the "
                         "file holds"),
            std::string::npos)
      << message;
  std::remove(path.c_str());
}

class CheckpointTruncation : public ::testing::TestWithParam<double> {};

TEST_P(CheckpointTruncation, TruncatedFileThrows) {
  dc::Rng rng(9);
  nn::ParamRegistry reg;
  nn::Linear lin(reg, rng, "lin", 8, 8);
  const auto path = make_checkpoint_file(reg);
  const auto bytes = read_all(path);
  const auto cut = static_cast<std::size_t>(
      static_cast<double>(bytes.size()) * GetParam());
  write_all(path, std::vector<char>(
                      bytes.begin(),
                      bytes.begin() + static_cast<std::ptrdiff_t>(
                                          std::max<std::size_t>(cut, 1))));
  nn::ParamRegistry fresh;
  dc::Rng rng2(10);
  nn::Linear lin2(fresh, rng2, "lin", 8, 8);
  EXPECT_THROW(nn::load_checkpoint(fresh, path), std::exception);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(CutPoints, CheckpointTruncation,
                         ::testing::Values(0.1, 0.4, 0.7, 0.9));

TEST(CheckpointCorruption, ValuesSurviveIntactOtherwise) {
  // Control: an untouched file loads exactly.
  dc::Rng rng(11);
  nn::ParamRegistry reg;
  nn::Linear lin(reg, rng, "lin", 4, 4);
  const auto path = make_checkpoint_file(reg);
  nn::ParamRegistry fresh;
  dc::Rng rng2(12);
  nn::Linear lin2(fresh, rng2, "lin", 4, 4);
  nn::load_checkpoint(fresh, path);
  for (std::size_t i = 0; i < reg.size(); ++i) {
    for (std::int64_t j = 0; j < reg.params()[i].numel(); ++j) {
      EXPECT_FLOAT_EQ(fresh.params()[i].value()[j],
                      reg.params()[i].value()[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(PatternValidation, LoadedLibraryEntriesAreValidated) {
  // A library whose delta bytes are zeroed must fail SquishPattern
  // validation on load (positive-delta invariant).
  const auto path = make_library_file();
  auto bytes = read_all(path);
  // Zero the last 16 bytes (tail of the last pattern's dy deltas).
  for (std::size_t i = bytes.size() - 16; i < bytes.size(); ++i) {
    bytes[i] = 0;
  }
  write_all(path, bytes);
  EXPECT_THROW(dio::load_pattern_library(path), std::invalid_argument);
  std::remove(path.c_str());
}
