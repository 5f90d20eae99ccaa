#include "hsi/io.hpp"

#include <bit>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "common/error.hpp"

namespace hprs::hsi {

namespace {

static_assert(std::endian::native == std::endian::little,
              "hsi::io assumes a little-endian host; add byte swapping "
              "before porting to a big-endian target");

Interleave parse_interleave(const std::string& s) {
  if (s == "bip") return Interleave::kBip;
  if (s == "bil") return Interleave::kBil;
  if (s == "bsq") return Interleave::kBsq;
  throw Error("unknown interleave '" + s + "' in ENVI header");
}

/// Strict positive-integer parse for a header dimension.  std::stoull would
/// accept signs, leading junk, and silently wrap on overflow -- and throws
/// bare std::invalid_argument on garbage; this names the offending key
/// instead.
std::size_t parse_dimension(const std::string& key, const std::string& value) {
  HPRS_REQUIRE(!value.empty() &&
                   value.find_first_not_of("0123456789") == std::string::npos,
               "ENVI header key '" + key + "' is not a non-negative integer: '" +
                   value + "'");
  std::size_t out = 0;
  for (const char c : value) {
    const auto digit = static_cast<std::size_t>(c - '0');
    HPRS_REQUIRE(out <= (std::numeric_limits<std::size_t>::max() - digit) / 10,
                 "ENVI header key '" + key + "' overflows: '" + value + "'");
    out = out * 10 + digit;
  }
  HPRS_REQUIRE(out > 0, "ENVI header key '" + key + "' must be positive");
  return out;
}

/// Checked a*b for sizing the sample buffer.
std::size_t checked_mul(std::size_t a, std::size_t b) {
  HPRS_REQUIRE(b == 0 || a <= std::numeric_limits<std::size_t>::max() / b,
               "ENVI cube dimensions overflow the sample count");
  return a * b;
}

}  // namespace

void write_envi(const HsiCube& cube, const std::string& path_stem,
                Interleave il) {
  HPRS_REQUIRE(!cube.empty(), "refusing to write an empty cube");
  {
    std::ofstream hdr(path_stem + ".hdr");
    HPRS_REQUIRE(hdr.good(), "cannot open header for writing: " + path_stem);
    hdr << "ENVI\n"
        << "description = {hprs synthetic hyperspectral cube}\n"
        << "samples = " << cube.cols() << "\n"
        << "lines = " << cube.rows() << "\n"
        << "bands = " << cube.bands() << "\n"
        << "header offset = 0\n"
        << "data type = 4\n"
        << "interleave = " << to_string(il) << "\n"
        << "byte order = 0\n";
    HPRS_REQUIRE(hdr.good(), "failed writing header: " + path_stem);
  }
  {
    std::ofstream raw(path_stem + ".raw", std::ios::binary);
    HPRS_REQUIRE(raw.good(), "cannot open raw file for writing: " + path_stem);
    const auto samples = cube.to_interleave(il);
    raw.write(reinterpret_cast<const char*>(samples.data()),
              static_cast<std::streamsize>(samples.size() * sizeof(float)));
    HPRS_REQUIRE(raw.good(), "failed writing raw samples: " + path_stem);
  }
}

HsiCube read_envi(const std::string& path_stem) {
  std::ifstream hdr(path_stem + ".hdr");
  HPRS_REQUIRE(hdr.good(), "cannot open header: " + path_stem + ".hdr");

  // The format's magic: the first line must read "ENVI".
  std::string line;
  HPRS_REQUIRE(std::getline(hdr, line) &&
                   line.substr(0, line.find_last_not_of(" \t\r") + 1) == "ENVI",
               "not an ENVI header (missing ENVI magic): " + path_stem +
                   ".hdr");

  std::map<std::string, std::string> keys;
  while (std::getline(hdr, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    auto trim = [](std::string s) {
      const auto b = s.find_first_not_of(" \t\r");
      const auto e = s.find_last_not_of(" \t\r");
      return b == std::string::npos ? std::string{} : s.substr(b, e - b + 1);
    };
    keys[trim(line.substr(0, eq))] = trim(line.substr(eq + 1));
  }

  const auto need = [&](const std::string& k) {
    const auto it = keys.find(k);
    HPRS_REQUIRE(it != keys.end(), "ENVI header missing key '" + k + "'");
    return it->second;
  };
  const std::size_t rows = parse_dimension("lines", need("lines"));
  const std::size_t cols = parse_dimension("samples", need("samples"));
  const std::size_t bands = parse_dimension("bands", need("bands"));
  const std::size_t count = checked_mul(checked_mul(rows, cols), bands);
  HPRS_REQUIRE(count <= std::numeric_limits<std::size_t>::max() /
                            sizeof(float),
               "ENVI cube dimensions overflow the byte count");
  HPRS_REQUIRE(need("data type") == "4",
               "only float32 (ENVI data type 4) cubes are supported");
  HPRS_REQUIRE(keys.count("byte order") == 0 || keys["byte order"] == "0",
               "only little-endian (byte order 0) cubes are supported");
  HPRS_REQUIRE(keys.count("header offset") == 0 ||
                   keys["header offset"] == "0",
               "embedded headers (header offset != 0) are not supported");
  const Interleave il = parse_interleave(need("interleave"));

  std::ifstream raw(path_stem + ".raw", std::ios::binary | std::ios::ate);
  HPRS_REQUIRE(raw.good(), "cannot open raw file: " + path_stem + ".raw");
  // Size the buffer only once the file matches it: the header's
  // dimensions are outside input, and a few bytes of header must not be
  // able to ask for an allocation larger than the address space, nor a
  // header that under-states a dimension load a shorter cube.
  const std::size_t bytes = count * sizeof(float);
  const std::streamoff have = raw.tellg();
  HPRS_REQUIRE(have >= 0 && static_cast<std::uintmax_t>(have) == bytes,
               "raw file size does not match the header: " + path_stem +
                   ".raw holds " + std::to_string(have) +
                   " bytes, the header needs " + std::to_string(bytes));
  raw.seekg(0);
  std::vector<float> samples(count);
  raw.read(reinterpret_cast<char*>(samples.data()),
           static_cast<std::streamsize>(bytes));
  HPRS_REQUIRE(raw.gcount() == static_cast<std::streamsize>(bytes),
               "raw file truncated: " + path_stem + ".raw");

  return HsiCube::from_interleave(rows, cols, bands, il, samples);
}

}  // namespace hprs::hsi
