#include "hsi/io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace hprs::hsi {
namespace {

class HsiIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hprs_io_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string stem(const std::string& name) const {
    return (dir_ / name).string();
  }

  static HsiCube random_cube(std::size_t rows, std::size_t cols,
                             std::size_t bands, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    HsiCube cube(rows, cols, bands);
    for (auto& v : cube.samples()) {
      v = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    return cube;
  }

  std::filesystem::path dir_;
};

TEST_F(HsiIoTest, WritesHeaderAndRawPair) {
  write_envi(random_cube(4, 5, 6, 1), stem("cube"));
  EXPECT_TRUE(std::filesystem::exists(stem("cube") + ".hdr"));
  EXPECT_TRUE(std::filesystem::exists(stem("cube") + ".raw"));
  EXPECT_EQ(std::filesystem::file_size(stem("cube") + ".raw"),
            4u * 5u * 6u * sizeof(float));
}

TEST_F(HsiIoTest, HeaderCarriesEnviKeys) {
  write_envi(random_cube(4, 5, 6, 1), stem("cube"), Interleave::kBil);
  std::ifstream hdr(stem("cube") + ".hdr");
  std::string text((std::istreambuf_iterator<char>(hdr)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("samples = 5"), std::string::npos);
  EXPECT_NE(text.find("lines = 4"), std::string::npos);
  EXPECT_NE(text.find("bands = 6"), std::string::npos);
  EXPECT_NE(text.find("interleave = bil"), std::string::npos);
  EXPECT_NE(text.find("data type = 4"), std::string::npos);
}

TEST_F(HsiIoTest, RefusesToWriteEmptyCube) {
  EXPECT_THROW(write_envi(HsiCube(), stem("empty")), Error);
}

TEST_F(HsiIoTest, MissingHeaderThrows) {
  EXPECT_THROW((void)read_envi(stem("nonexistent")), Error);
}

TEST_F(HsiIoTest, TruncatedRawThrows) {
  write_envi(random_cube(4, 4, 4, 2), stem("trunc"));
  std::filesystem::resize_file(stem("trunc") + ".raw", 10);
  EXPECT_THROW((void)read_envi(stem("trunc")), Error);
}

TEST_F(HsiIoTest, RejectsARawFileOfTheWrongSizeNamingBothSizes) {
  const auto expect_sizes = [this](const std::string& name,
                                   const std::string& holds,
                                   const std::string& needs) {
    try {
      (void)read_envi(stem(name));
      ADD_FAILURE() << name << ": expected Error";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("holds " + holds + " bytes"), std::string::npos)
          << what;
      EXPECT_NE(what.find("needs " + needs), std::string::npos) << what;
    }
  };
  // 10^15 samples: the 4 * 10^15-byte buffer exceeds the address space, so
  // a reader that allocated before checking the file would fail with
  // std::bad_alloc instead of naming both sizes.
  {
    std::ofstream hdr(stem("vast") + ".hdr");
    hdr << "ENVI\nsamples = 100000\nlines = 100000\nbands = 100000\n"
        << "data type = 4\ninterleave = bip\n";
    std::ofstream raw(stem("vast") + ".raw", std::ios::binary);
    raw << "abcd";
  }
  expect_sizes("vast", "4", "4000000000000000");
  // A header that under-states a dimension must not load a shorter cube.
  write_envi(random_cube(4, 4, 4, 3), stem("long"));
  {
    std::ofstream hdr(stem("long") + ".hdr");
    hdr << "ENVI\nsamples = 4\nlines = 2\nbands = 4\n"
        << "data type = 4\ninterleave = bip\n";
  }
  expect_sizes("long", "256", "128");
}

TEST_F(HsiIoTest, CorruptHeaderThrows) {
  {
    std::ofstream hdr(stem("bad") + ".hdr");
    hdr << "ENVI\nsamples = 4\n";  // missing lines/bands/type
  }
  EXPECT_THROW((void)read_envi(stem("bad")), Error);
}

TEST_F(HsiIoTest, RejectsUnsupportedDataType) {
  {
    std::ofstream hdr(stem("dt") + ".hdr");
    hdr << "ENVI\nsamples = 2\nlines = 2\nbands = 2\ndata type = 2\n"
        << "interleave = bip\nbyte order = 0\n";
  }
  {
    std::ofstream raw(stem("dt") + ".raw", std::ios::binary);
    raw << "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx";
  }
  EXPECT_THROW((void)read_envi(stem("dt")), Error);
}

TEST_F(HsiIoTest, RejectsMissingEnviMagic) {
  {
    std::ofstream hdr(stem("nomagic") + ".hdr");
    hdr << "samples = 2\nlines = 2\nbands = 2\ndata type = 4\n"
        << "interleave = bip\n";
  }
  try {
    (void)read_envi(stem("nomagic"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("ENVI magic"), std::string::npos);
  }
}

TEST_F(HsiIoTest, RejectsNonNumericDimensionNamingTheKey) {
  {
    std::ofstream hdr(stem("badnum") + ".hdr");
    hdr << "ENVI\nsamples = 2\nlines = twelve\nbands = 2\ndata type = 4\n"
        << "interleave = bip\n";
  }
  try {
    (void)read_envi(stem("badnum"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'lines'"), std::string::npos);
  }
}

TEST_F(HsiIoTest, RejectsNegativeDimension) {
  {
    std::ofstream hdr(stem("neg") + ".hdr");
    hdr << "ENVI\nsamples = -4\nlines = 2\nbands = 2\ndata type = 4\n"
        << "interleave = bip\n";
  }
  EXPECT_THROW((void)read_envi(stem("neg")), Error);
}

TEST_F(HsiIoTest, RejectsZeroDimension) {
  {
    std::ofstream hdr(stem("zero") + ".hdr");
    hdr << "ENVI\nsamples = 0\nlines = 2\nbands = 2\ndata type = 4\n"
        << "interleave = bip\n";
  }
  EXPECT_THROW((void)read_envi(stem("zero")), Error);
}

TEST_F(HsiIoTest, RejectsOverflowingDimensions) {
  {
    std::ofstream hdr(stem("huge") + ".hdr");
    // 2^64 does not fit a std::size_t digit-by-digit parse...
    hdr << "ENVI\nsamples = 18446744073709551616\nlines = 2\nbands = 2\n"
        << "data type = 4\ninterleave = bip\n";
  }
  EXPECT_THROW((void)read_envi(stem("huge")), Error);
  {
    std::ofstream hdr(stem("hugeprod") + ".hdr");
    // ...and neither does the product of three individually valid values.
    hdr << "ENVI\nsamples = 4294967295\nlines = 4294967295\nbands = 224\n"
        << "data type = 4\ninterleave = bip\n";
  }
  EXPECT_THROW((void)read_envi(stem("hugeprod")), Error);
}

TEST_F(HsiIoTest, RejectsUnknownInterleave) {
  {
    std::ofstream hdr(stem("il") + ".hdr");
    hdr << "ENVI\nsamples = 2\nlines = 2\nbands = 2\ndata type = 4\n"
        << "interleave = bipx\n";
  }
  EXPECT_THROW((void)read_envi(stem("il")), Error);
}

TEST_F(HsiIoTest, RejectsBigEndianCube) {
  {
    std::ofstream hdr(stem("be") + ".hdr");
    hdr << "ENVI\nsamples = 2\nlines = 2\nbands = 2\ndata type = 4\n"
        << "interleave = bip\nbyte order = 1\n";
  }
  EXPECT_THROW((void)read_envi(stem("be")), Error);
}

TEST_F(HsiIoTest, RejectsEmbeddedHeaderOffset) {
  {
    std::ofstream hdr(stem("off") + ".hdr");
    hdr << "ENVI\nsamples = 2\nlines = 2\nbands = 2\ndata type = 4\n"
        << "interleave = bip\nheader offset = 512\n";
  }
  EXPECT_THROW((void)read_envi(stem("off")), Error);
}

class IoInterleaveSweep : public ::testing::TestWithParam<Interleave> {};

TEST_P(IoInterleaveSweep, RoundTripsExactly) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("hprs_io_sweep_" + std::string(to_string(GetParam())));
  std::filesystem::create_directories(dir);
  const std::string stem = (dir / "cube").string();

  Xoshiro256 rng(42);
  HsiCube cube(7, 5, 9);
  for (auto& v : cube.samples()) v = static_cast<float>(rng.uniform(0, 2));

  write_envi(cube, stem, GetParam());
  const HsiCube back = read_envi(stem);
  ASSERT_EQ(back.rows(), cube.rows());
  ASSERT_EQ(back.cols(), cube.cols());
  ASSERT_EQ(back.bands(), cube.bands());
  for (std::size_t i = 0; i < cube.sample_count(); ++i) {
    ASSERT_EQ(back.samples()[i], cube.samples()[i]);
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, IoInterleaveSweep,
                         ::testing::Values(Interleave::kBip, Interleave::kBil,
                                           Interleave::kBsq),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

}  // namespace
}  // namespace hprs::hsi
