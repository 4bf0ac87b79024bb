#include "io/gds.h"

#include <cmath>
#include <cstring>
#include <fstream>

#include "common/contracts.h"
#include "geometry/components.h"

namespace diffpattern::io {

namespace {

class RecordWriter {
 public:
  explicit RecordWriter(std::ofstream& out) : out_(out) {}

  void record(std::uint8_t type, std::uint8_t data_type,
              const std::vector<std::uint8_t>& payload) {
    const auto length = static_cast<std::uint16_t>(payload.size() + 4);
    DP_REQUIRE(payload.size() + 4 <= 0xFFFF, "gds: record too long");
    put_u16(length);
    out_.put(static_cast<char>(type));
    out_.put(static_cast<char>(data_type));
    out_.write(reinterpret_cast<const char*>(payload.data()),
               static_cast<std::streamsize>(payload.size()));
  }

  static void append_i16(std::vector<std::uint8_t>& payload,
                         std::int16_t value) {
    payload.push_back(static_cast<std::uint8_t>((value >> 8) & 0xFF));
    payload.push_back(static_cast<std::uint8_t>(value & 0xFF));
  }

  static void append_i32(std::vector<std::uint8_t>& payload,
                         std::int32_t value) {
    const auto u = static_cast<std::uint32_t>(value);
    payload.push_back(static_cast<std::uint8_t>((u >> 24) & 0xFF));
    payload.push_back(static_cast<std::uint8_t>((u >> 16) & 0xFF));
    payload.push_back(static_cast<std::uint8_t>((u >> 8) & 0xFF));
    payload.push_back(static_cast<std::uint8_t>(u & 0xFF));
  }

  static void append_u64(std::vector<std::uint8_t>& payload,
                         std::uint64_t value) {
    for (int shift = 56; shift >= 0; shift -= 8) {
      payload.push_back(static_cast<std::uint8_t>((value >> shift) & 0xFF));
    }
  }

  static std::vector<std::uint8_t> ascii_payload(const std::string& text) {
    std::vector<std::uint8_t> payload(text.begin(), text.end());
    if (payload.size() % 2 != 0) {
      payload.push_back(0);  // GDS strings are padded to even length.
    }
    return payload;
  }

 private:
  void put_u16(std::uint16_t value) {
    out_.put(static_cast<char>((value >> 8) & 0xFF));
    out_.put(static_cast<char>(value & 0xFF));
  }

  std::ofstream& out_;
};

std::vector<std::uint8_t> timestamp_payload() {
  // Twelve i16 fields (creation + modification date); fixed for
  // reproducible output.
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 12; ++i) {
    RecordWriter::append_i16(payload, 0);
  }
  return payload;
}

}  // namespace

std::uint64_t encode_gds_real(double value) {
  if (value == 0.0) {
    return 0;
  }
  std::uint64_t sign = 0;
  if (value < 0.0) {
    sign = 1;
    value = -value;
  }
  // Normalize mantissa into [1/16, 1) with base-16 exponent.
  int exponent = 64;
  while (value >= 1.0) {
    value /= 16.0;
    ++exponent;
  }
  while (value < 1.0 / 16.0) {
    value *= 16.0;
    --exponent;
  }
  DP_REQUIRE(exponent >= 0 && exponent <= 127, "gds real: exponent overflow");
  const auto mantissa = static_cast<std::uint64_t>(
      std::llround(value * 72057594037927936.0));  // value * 2^56
  return (sign << 63) | (static_cast<std::uint64_t>(exponent) << 56) |
         (mantissa & 0x00FFFFFFFFFFFFFFULL);
}

void write_gds(const std::string& path, const GdsLibrary& library) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("write_gds: cannot open " + path);
  }
  RecordWriter writer(out);
  {
    std::vector<std::uint8_t> payload;
    RecordWriter::append_i16(payload, 600);  // Stream version 6.
    writer.record(gds::kHeader, gds::kInt16, payload);
  }
  writer.record(gds::kBgnLib, gds::kInt16, timestamp_payload());
  writer.record(gds::kLibName, gds::kAscii,
                RecordWriter::ascii_payload(library.name));
  {
    // Database unit = 1 nm: 1e-3 user units (um), 1e-9 meters.
    std::vector<std::uint8_t> payload;
    RecordWriter::append_u64(payload, encode_gds_real(1e-3));
    RecordWriter::append_u64(payload, encode_gds_real(1e-9));
    writer.record(gds::kUnits, gds::kReal8, payload);
  }
  for (const auto& structure : library.structures) {
    writer.record(gds::kBgnStr, gds::kInt16, timestamp_payload());
    writer.record(gds::kStrName, gds::kAscii,
                  RecordWriter::ascii_payload(structure.name));
    for (const auto& polygon : structure.polygons) {
      DP_REQUIRE(polygon.ring.size() >= 3, "write_gds: degenerate polygon");
      writer.record(gds::kBoundary, gds::kNoData, {});
      {
        std::vector<std::uint8_t> payload;
        RecordWriter::append_i16(payload, polygon.layer);
        writer.record(gds::kLayer, gds::kInt16, payload);
      }
      {
        std::vector<std::uint8_t> payload;
        RecordWriter::append_i16(payload, polygon.datatype);
        writer.record(gds::kDatatype, gds::kInt16, payload);
      }
      {
        std::vector<std::uint8_t> payload;
        for (const auto& point : polygon.ring) {
          RecordWriter::append_i32(payload,
                                   static_cast<std::int32_t>(point.x));
          RecordWriter::append_i32(payload,
                                   static_cast<std::int32_t>(point.y));
        }
        // GDSII closes the ring explicitly.
        RecordWriter::append_i32(
            payload, static_cast<std::int32_t>(polygon.ring.front().x));
        RecordWriter::append_i32(
            payload, static_cast<std::int32_t>(polygon.ring.front().y));
        writer.record(gds::kXy, gds::kInt32, payload);
      }
      writer.record(gds::kEndEl, gds::kNoData, {});
    }
    writer.record(gds::kEndStr, gds::kNoData, {});
  }
  writer.record(gds::kEndLib, gds::kNoData, {});
  if (!out) {
    throw std::runtime_error("write_gds: write failed for " + path);
  }
}

GdsStructure pattern_to_structure(const layout::SquishPattern& pattern,
                                  const std::string& name,
                                  std::int16_t layer) {
  pattern.validate();
  GdsStructure structure;
  structure.name = name;
  // nm prefix sums.
  std::vector<geometry::Coord> xs(pattern.dx.size() + 1, 0);
  for (std::size_t i = 0; i < pattern.dx.size(); ++i) {
    xs[i + 1] = xs[i] + pattern.dx[i];
  }
  std::vector<geometry::Coord> ys(pattern.dy.size() + 1, 0);
  for (std::size_t i = 0; i < pattern.dy.size(); ++i) {
    ys[i + 1] = ys[i] + pattern.dy[i];
  }
  const auto analysis = geometry::analyze_components(pattern.topology);
  for (const auto& component : analysis.components) {
    const auto grid_ring =
        geometry::trace_outer_boundary(analysis, component.id);
    GdsPolygon polygon;
    polygon.layer = layer;
    polygon.ring.reserve(grid_ring.size());
    for (const auto& vertex : grid_ring) {
      polygon.ring.push_back(geometry::Point{
          xs[static_cast<std::size_t>(vertex.x)],
          ys[static_cast<std::size_t>(vertex.y)]});
    }
    structure.polygons.push_back(std::move(polygon));
  }
  return structure;
}

void write_pattern_library_gds(
    const std::string& path,
    const std::vector<layout::SquishPattern>& patterns, std::int16_t layer) {
  GdsLibrary library;
  library.structures.reserve(patterns.size());
  char name[32];
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    std::snprintf(name, sizeof(name), "PATTERN_%04zu", i);
    library.structures.push_back(
        pattern_to_structure(patterns[i], name, layer));
  }
  write_gds(path, library);
}

}  // namespace diffpattern::io
