// GDSII reader for the record subset io::write_gds emits: the round-trip
// check of the writer (tests/test_gds.cpp). It is not a general-purpose
// GDS parser.
#pragma once

#include <cstdint>
#include <string>

#include "io/gds.h"

namespace diffpattern::io {

/// Parses a file written by write_gds (same record subset). Throws
/// std::runtime_error on malformed input.
GdsLibrary read_gds(const std::string& path);

/// Inverse of encode_gds_real: GDSII 8-byte real to double.
double decode_gds_real(std::uint64_t bits);

}  // namespace diffpattern::io
