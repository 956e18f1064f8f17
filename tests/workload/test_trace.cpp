#include "workload/trace.hpp"

#include <gtest/gtest.h>

namespace src::workload {
namespace {

using common::IoType;
using common::microseconds;

Trace tiny_trace() {
  return Trace{
      {microseconds(0), 0, 4096, IoType::kRead},
      {microseconds(10), 8192, 8192, IoType::kWrite},
      {microseconds(20), 16384, 4096, IoType::kRead},
      {microseconds(40), 0, 12288, IoType::kRead},
  };
}

TEST(TraceTest, AnalyzeCountsAndRatio) {
  const auto stats = analyze(tiny_trace());
  EXPECT_EQ(stats.read.count, 3u);
  EXPECT_EQ(stats.write.count, 1u);
  EXPECT_DOUBLE_EQ(stats.read_ratio, 0.75);
}

TEST(TraceTest, AnalyzeMeans) {
  const auto stats = analyze(tiny_trace());
  // Read IATs: 20, 20 us.
  EXPECT_DOUBLE_EQ(stats.read.mean_iat_us, 20.0);
  EXPECT_NEAR(stats.read.mean_size_bytes, (4096 + 4096 + 12288) / 3.0, 1e-9);
}

TEST(TraceTest, FlowSpeedUsesDuration) {
  const auto stats = analyze(tiny_trace());
  // Duration 40 us; read bytes 20480 -> 512e6 B/s.
  EXPECT_NEAR(stats.read.flow_speed_bytes_per_sec, 20480 / 40e-6, 1.0);
}

TEST(TraceTest, EmptyTraceIsSafe) {
  const auto stats = analyze(Trace{});
  EXPECT_EQ(stats.read.count, 0u);
  EXPECT_EQ(stats.write.count, 0u);
  EXPECT_DOUBLE_EQ(stats.read_ratio, 0.0);
}

TEST(TraceTest, SingleTypeTrace) {
  Trace trace{{microseconds(0), 0, 4096, IoType::kWrite},
              {microseconds(5), 4096, 4096, IoType::kWrite}};
  const auto stats = analyze(trace);
  EXPECT_EQ(stats.read.count, 0u);
  EXPECT_EQ(stats.write.count, 2u);
  EXPECT_DOUBLE_EQ(stats.read_ratio, 0.0);
}

TEST(TraceTest, MergePreservesOrderAndSize) {
  const Trace a{{microseconds(0), 0, 4096, IoType::kRead},
                {microseconds(20), 0, 4096, IoType::kRead}};
  const Trace b{{microseconds(10), 0, 4096, IoType::kWrite}};
  std::size_t next_a = 0;
  std::size_t next_b = 0;
  const Trace merged = merge_streams(
      a.size(), [&] { return a[next_a++]; }, b.size(), [&] { return b[next_b++]; });
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_LE(merged[0].arrival, merged[1].arrival);
  EXPECT_LE(merged[1].arrival, merged[2].arrival);
  EXPECT_EQ(merged[1].type, IoType::kWrite);
}

TEST(TraceTest, SortByArrivalIsStable) {
  Trace trace{{microseconds(10), 1, 4096, IoType::kRead},
              {microseconds(10), 2, 4096, IoType::kWrite},
              {microseconds(0), 3, 4096, IoType::kRead}};
  sort_by_arrival(trace);
  EXPECT_EQ(trace[0].lba, 3u);
  EXPECT_EQ(trace[1].lba, 1u);  // stable: read before write at t=10
  EXPECT_EQ(trace[2].lba, 2u);
}

}  // namespace
}  // namespace src::workload
