// Minimal GDSII stream-format writer.
//
// Writes generated pattern libraries as standard GDSII so downstream tools
// (KLayout, commercial DRC) can open them directly: one structure (cell) per
// pattern, one BOUNDARY element per polygon, database unit 1 nm. The
// round-trip reader that checks this writer is test support
// (tests/support/gds_reader.h).
//
// Record framing: u16 big-endian length (header included), u8 record type,
// u8 data type, payload. Reals use the GDSII excess-64 base-16 format.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/types.h"
#include "layout/squish.h"

namespace diffpattern::io {

/// GDSII record and data type codes: the subset write_gds emits.
namespace gds {

// Record types.
inline constexpr std::uint8_t kHeader = 0x00;
inline constexpr std::uint8_t kBgnLib = 0x01;
inline constexpr std::uint8_t kLibName = 0x02;
inline constexpr std::uint8_t kUnits = 0x03;
inline constexpr std::uint8_t kEndLib = 0x04;
inline constexpr std::uint8_t kBgnStr = 0x05;
inline constexpr std::uint8_t kStrName = 0x06;
inline constexpr std::uint8_t kEndStr = 0x07;
inline constexpr std::uint8_t kBoundary = 0x08;
inline constexpr std::uint8_t kLayer = 0x0D;
inline constexpr std::uint8_t kDatatype = 0x0E;
inline constexpr std::uint8_t kXy = 0x10;
inline constexpr std::uint8_t kEndEl = 0x11;

// Data types.
inline constexpr std::uint8_t kNoData = 0x00;
inline constexpr std::uint8_t kInt16 = 0x02;
inline constexpr std::uint8_t kInt32 = 0x03;
inline constexpr std::uint8_t kReal8 = 0x05;
inline constexpr std::uint8_t kAscii = 0x06;

}  // namespace gds

struct GdsPolygon {
  std::int16_t layer = 1;
  std::int16_t datatype = 0;
  /// Closed rectilinear ring in nm; first vertex NOT repeated (the writer
  /// closes the loop on disk as GDSII requires).
  std::vector<geometry::Point> ring;
};

struct GdsStructure {
  std::string name;
  std::vector<GdsPolygon> polygons;
};

struct GdsLibrary {
  std::string name = "DIFFPATTERN";
  std::vector<GdsStructure> structures;
};

/// Serializes the library with 1 nm database units.
void write_gds(const std::string& path, const GdsLibrary& library);

/// Converts a squish pattern into one GDS structure: polygons are the
/// 4-connected components of the topology, traced to rectilinear rings and
/// scaled by the geometric vectors.
GdsStructure pattern_to_structure(const layout::SquishPattern& pattern,
                                  const std::string& name,
                                  std::int16_t layer = 1);

/// Convenience: writes a whole pattern library ("PATTERN_0000", ...).
void write_pattern_library_gds(const std::string& path,
                               const std::vector<layout::SquishPattern>&
                                   patterns,
                               std::int16_t layer = 1);

/// GDSII 8-byte real encoding (exposed for tests).
std::uint64_t encode_gds_real(double value);

}  // namespace diffpattern::io
