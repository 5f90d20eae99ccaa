#include "simnet/platform_io.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "common/error.hpp"

namespace hprs::simnet {
namespace {

void expect_same_platform(const Platform& a, const Platform& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.switched_fabric(), b.switched_fabric());
  ASSERT_EQ(a.segment_count(), b.segment_count());
  for (std::size_t s = 0; s < a.segment_count(); ++s) {
    for (std::size_t t = 0; t < a.segment_count(); ++t) {
      EXPECT_DOUBLE_EQ(a.segment_capacity_ms_per_mbit(s, t),
                       b.segment_capacity_ms_per_mbit(s, t));
    }
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.processor(i).name, b.processor(i).name);
    EXPECT_DOUBLE_EQ(a.cycle_time(i), b.cycle_time(i));
    EXPECT_EQ(a.processor(i).memory_mb, b.processor(i).memory_mb);
    EXPECT_EQ(a.processor(i).cache_kb, b.processor(i).cache_kb);
    EXPECT_EQ(a.segment_of(i), b.segment_of(i));
    EXPECT_EQ(a.processor(i).architecture, b.processor(i).architecture);
    EXPECT_EQ(a.accelerated(i), b.accelerated(i));
    EXPECT_DOUBLE_EQ(a.processor(i).stage_latency_ms,
                     b.processor(i).stage_latency_ms);
    EXPECT_DOUBLE_EQ(a.processor(i).stage_ms_per_mbit,
                     b.processor(i).stage_ms_per_mbit);
  }
}

TEST(PlatformIoTest, PaperPlatformsRoundTripThroughText) {
  for (const auto& platform :
       {fully_heterogeneous(), fully_homogeneous(), partially_heterogeneous(),
        partially_homogeneous(), thunderhead(8), accelerated_now(4, 2)}) {
    const Platform back = parse_platform(format_platform(platform));
    expect_same_platform(platform, back);
  }
}

TEST(PlatformIoTest, ParsesTheAcceleratorGroup) {
  const Platform p = parse_platform(
      "platform accel-mini\n"
      "segments 1\n"
      "capacity 26.64\n"
      "processor c1 0.0131 2048 1024 0 Linux -- AMD Athlon\n"
      "processor a1 0.0003 2048 1024 0 accel 2.0 0.06 Linux + accelerator\n");
  ASSERT_EQ(p.size(), 2u);
  EXPECT_FALSE(p.accelerated(0));
  EXPECT_TRUE(p.accelerated(1));
  EXPECT_TRUE(p.has_accelerated());
  EXPECT_DOUBLE_EQ(p.processor(1).stage_latency_ms, 2.0);
  EXPECT_DOUBLE_EQ(p.processor(1).stage_ms_per_mbit, 0.06);
  EXPECT_EQ(p.processor(1).architecture, "Linux + accelerator");
  // 1 MB onto the device: 8 megabits * 0.06 ms/megabit = 0.48 ms.
  EXPECT_NEAR(p.stage_seconds(1, 1000000), 0.48e-3, 1e-12);
  EXPECT_DOUBLE_EQ(p.stage_seconds(0, 1000000), 0.0);
}

TEST(PlatformIoTest, RejectsAMalformedAcceleratorGroup) {
  EXPECT_THROW(parse_platform("platform x\n"
                              "segments 1\n"
                              "capacity 1.0\n"
                              "processor a1 0.01 1024 512 0 accel 2.0\n"),
               Error);
}

TEST(PlatformIoTest, RoundTripsThroughAFile) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("hprs_pio_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "net.platform").string();
  save_platform(fully_heterogeneous(), path);
  expect_same_platform(fully_heterogeneous(), load_platform(path));
  std::filesystem::remove_all(dir);
}

TEST(PlatformIoTest, ParsesHandWrittenDescription) {
  const Platform p = parse_platform(R"(
# a two-segment toy network
platform toy
fabric switched
segments 2
capacity 10 50
         50 12
processor alpha 0.004 2048 1024 0 Linux -- test box
processor beta  0.008 1024 512  1
)");
  EXPECT_EQ(p.name(), "toy");
  EXPECT_TRUE(p.switched_fabric());
  EXPECT_EQ(p.size(), 2u);
  EXPECT_DOUBLE_EQ(p.cycle_time(0), 0.004);
  EXPECT_DOUBLE_EQ(p.link_ms_per_mbit(0, 1), 50.0);
  EXPECT_EQ(p.processor(0).architecture, "Linux -- test box");
  EXPECT_EQ(p.processor(1).architecture, "unspecified");
}

TEST(PlatformIoTest, CapacityMayFlowAcrossLines) {
  const Platform p = parse_platform(
      "platform flow\nsegments 2\ncapacity\n1 2\n2 3\n"
      "processor x 0.01 64 64 0\n");
  EXPECT_DOUBLE_EQ(p.segment_capacity_ms_per_mbit(1, 1), 3.0);
}

TEST(PlatformIoTest, RejectsMalformedInput) {
  // Missing platform name.
  EXPECT_THROW((void)parse_platform("segments 1\ncapacity 1\n"
                                    "processor x 0.01 64 64 0\n"),
               Error);
  // Unknown directive.
  EXPECT_THROW((void)parse_platform("platform x\nbogus 1\n"), Error);
  // Capacity before segments.
  EXPECT_THROW((void)parse_platform("platform x\ncapacity 1\n"), Error);
  // Incomplete capacity matrix.
  EXPECT_THROW((void)parse_platform("platform x\nsegments 2\ncapacity 1 2\n"),
               Error);
  // Bad fabric.
  EXPECT_THROW((void)parse_platform("platform x\nfabric quantum\n"), Error);
  // No processors.
  EXPECT_THROW((void)parse_platform("platform x\nsegments 1\ncapacity 1\n"),
               Error);
  // Asymmetric capacities (rejected by Platform's own validation).
  EXPECT_THROW((void)parse_platform("platform x\nsegments 2\n"
                                    "capacity 1 2\n3 1\n"
                                    "processor y 0.01 64 64 0\n"),
               Error);
}

TEST(PlatformIoTest, RejectsImpossibleSegmentCountsNamingTheLine) {
  // -1 wraps around an unsigned read; 10^14 segments need 10^28 capacity
  // values, more than any text holds.  Both sizes are chosen so a parser
  // that sized the matrix first fails at once instead of paging.
  for (const char* count : {"0", "-1", "100000000000000"}) {
    try {
      (void)parse_platform(std::string("platform x\nsegments ") + count +
                           "\ncapacity 1\nprocessor y 0.01 64 64 0\n");
      ADD_FAILURE() << "segments " << count << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("platform file, line 2:"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(PlatformIoTest, MissingFileThrows) {
  EXPECT_THROW((void)load_platform("/nonexistent/net.platform"), Error);
}

}  // namespace
}  // namespace hprs::simnet
