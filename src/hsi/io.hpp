// ENVI-style cube I/O.
//
// Writes a pair of files: `<path>.hdr` (a text header with the standard
// ENVI keys: samples, lines, bands, interleave, data type, byte order) and
// `<path>.raw` (the samples in the requested interleave, little-endian
// 32-bit IEEE floats -- ENVI data type 4).  This is the interchange format
// AVIRIS products ship in, so real scenes drop into the examples unchanged.
#pragma once

#include <string>

#include "hsi/cube.hpp"

namespace hprs::hsi {

/// Writes `<path>.hdr` + `<path>.raw`.  Throws hprs::Error on I/O failure.
void write_envi(const HsiCube& cube, const std::string& path_stem,
                Interleave il = Interleave::kBip);

/// Reads a cube written by write_envi (or any ENVI float32 cube).  Throws
/// hprs::Error naming the key or the sizes when the header is malformed or
/// the .raw file does not hold exactly lines x samples x bands floats.
[[nodiscard]] HsiCube read_envi(const std::string& path_stem);

}  // namespace hprs::hsi
