#include "support/gds_reader.h"

#include <cmath>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "common/contracts.h"

namespace diffpattern::io {

namespace {

struct RawRecord {
  std::uint8_t type = 0;
  std::uint8_t data_type = 0;
  std::vector<std::uint8_t> payload;
};

class RecordReader {
 public:
  explicit RecordReader(std::ifstream& in) : in_(in) {}

  bool next(RawRecord& record) {
    const int hi = in_.get();
    if (hi == EOF) {
      return false;
    }
    const int lo = in_.get();
    const int type = in_.get();
    const int data_type = in_.get();
    if (lo == EOF || type == EOF || data_type == EOF) {
      throw std::runtime_error("gds: truncated record header");
    }
    const auto length = static_cast<std::size_t>((hi << 8) | lo);
    if (length < 4) {
      throw std::runtime_error("gds: invalid record length");
    }
    record.type = static_cast<std::uint8_t>(type);
    record.data_type = static_cast<std::uint8_t>(data_type);
    record.payload.resize(length - 4);
    in_.read(reinterpret_cast<char*>(record.payload.data()),
             static_cast<std::streamsize>(record.payload.size()));
    if (!in_ && !record.payload.empty()) {
      throw std::runtime_error("gds: truncated record payload");
    }
    return true;
  }

 private:
  std::ifstream& in_;
};

std::int16_t read_i16(const std::vector<std::uint8_t>& payload,
                      std::size_t offset) {
  DP_REQUIRE(offset + 2 <= payload.size(), "gds: short i16 payload");
  return static_cast<std::int16_t>((payload[offset] << 8) |
                                   payload[offset + 1]);
}

std::int32_t read_i32(const std::vector<std::uint8_t>& payload,
                      std::size_t offset) {
  DP_REQUIRE(offset + 4 <= payload.size(), "gds: short i32 payload");
  return static_cast<std::int32_t>(
      (static_cast<std::uint32_t>(payload[offset]) << 24) |
      (static_cast<std::uint32_t>(payload[offset + 1]) << 16) |
      (static_cast<std::uint32_t>(payload[offset + 2]) << 8) |
      static_cast<std::uint32_t>(payload[offset + 3]));
}

std::string read_ascii(const std::vector<std::uint8_t>& payload) {
  std::string text(payload.begin(), payload.end());
  while (!text.empty() && text.back() == '\0') {
    text.pop_back();
  }
  return text;
}

}  // namespace

double decode_gds_real(std::uint64_t bits) {
  if (bits == 0) {
    return 0.0;
  }
  const bool negative = (bits >> 63) != 0;
  const int exponent = static_cast<int>((bits >> 56) & 0x7F) - 64;
  const double mantissa =
      static_cast<double>(bits & 0x00FFFFFFFFFFFFFFULL) /
      72057594037927936.0;  // / 2^56
  const double value = mantissa * std::pow(16.0, exponent);
  return negative ? -value : value;
}

GdsLibrary read_gds(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("read_gds: cannot open " + path);
  }
  RecordReader reader(in);
  RawRecord record;
  GdsLibrary library;
  GdsStructure* current_structure = nullptr;
  GdsPolygon* current_polygon = nullptr;
  bool saw_header = false;
  bool ended = false;
  while (reader.next(record)) {
    switch (record.type) {
      case gds::kHeader:
        saw_header = true;
        break;
      case gds::kLibName:
        library.name = read_ascii(record.payload);
        break;
      case gds::kBgnStr:
        library.structures.emplace_back();
        current_structure = &library.structures.back();
        break;
      case gds::kStrName:
        DP_REQUIRE(current_structure != nullptr, "gds: STRNAME outside STR");
        current_structure->name = read_ascii(record.payload);
        break;
      case gds::kBoundary:
        DP_REQUIRE(current_structure != nullptr, "gds: BOUNDARY outside STR");
        current_structure->polygons.emplace_back();
        current_polygon = &current_structure->polygons.back();
        break;
      case gds::kLayer:
        DP_REQUIRE(current_polygon != nullptr, "gds: LAYER outside element");
        current_polygon->layer = read_i16(record.payload, 0);
        break;
      case gds::kDatatype:
        DP_REQUIRE(current_polygon != nullptr,
                   "gds: DATATYPE outside element");
        current_polygon->datatype = read_i16(record.payload, 0);
        break;
      case gds::kXy: {
        DP_REQUIRE(current_polygon != nullptr, "gds: XY outside element");
        DP_REQUIRE(record.payload.size() % 8 == 0, "gds: odd XY payload");
        const auto points = record.payload.size() / 8;
        DP_REQUIRE(points >= 4, "gds: XY ring too short");
        for (std::size_t i = 0; i + 1 < points; ++i) {  // Drop the closure.
          current_polygon->ring.push_back(geometry::Point{
              read_i32(record.payload, i * 8),
              read_i32(record.payload, i * 8 + 4)});
        }
        break;
      }
      case gds::kEndEl:
        current_polygon = nullptr;
        break;
      case gds::kEndStr:
        current_structure = nullptr;
        break;
      case gds::kEndLib:
        ended = true;
        break;
      default:
        break;  // Ignore records this subset does not model (UNITS, BGNLIB).
    }
    if (ended) {
      break;
    }
  }
  if (!saw_header || !ended) {
    throw std::runtime_error("read_gds: missing HEADER or ENDLIB in " + path);
  }
  return library;
}

}  // namespace diffpattern::io
