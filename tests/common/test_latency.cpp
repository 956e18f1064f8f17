#include "common/latency.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/rng.hpp"

namespace src::common {
namespace {

TEST(LatencyRecorderTest, EmptyIsZero) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_DOUBLE_EQ(rec.p50_us(), 0.0);
  EXPECT_DOUBLE_EQ(rec.mean_us(), 0.0);
}

TEST(LatencyRecorderTest, SingleSample) {
  LatencyRecorder rec;
  rec.record(microseconds(100));
  EXPECT_EQ(rec.count(), 1u);
  EXPECT_NEAR(rec.mean_us(), 100.0, 1e-9);
  EXPECT_NEAR(rec.p50_us(), 100.0, 20.0);  // bucketed
  EXPECT_NEAR(rec.max_us(), 100.0, 1e-9);
}

TEST(LatencyRecorderTest, QuantilesOrdered) {
  LatencyRecorder rec;
  Rng rng(3);
  for (int i = 0; i < 100'000; ++i) {
    rec.record(microseconds(rng.lognormal_mean_scv(200.0, 2.0)));
  }
  EXPECT_LE(rec.p50_us(), rec.p99_us());
  EXPECT_LE(rec.p99_us(), rec.p999_us());
  EXPECT_LE(rec.p999_us(), rec.max_us() * 1.1);
}

TEST(LatencyRecorderTest, QuantileAccuracyWithinBucketError) {
  LatencyRecorder rec;
  Rng rng(4);
  for (int i = 0; i < 200'000; ++i) {
    rec.record(microseconds(rng.exponential(500.0)));
  }
  // Exponential: p50 = 500*ln2 = 346.6, p99 = 500*ln100 = 2302.6.
  EXPECT_NEAR(rec.p50_us(), 500.0 * std::log(2.0), 500.0 * std::log(2.0) * 0.2);
  EXPECT_NEAR(rec.p99_us(), 500.0 * std::log(100.0), 500.0 * std::log(100.0) * 0.2);
}

TEST(LatencyRecorderTest, SubMicrosecondClampsToFirstBucket) {
  LatencyRecorder rec;
  rec.record(10);  // 10 ns
  EXPECT_EQ(rec.count(), 1u);
  EXPECT_GT(rec.p50_us(), 0.0);
}

TEST(LatencyRecorderTest, MergeEqualsUnion) {
  LatencyRecorder a, b, all;
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    const SimTime latency = microseconds(rng.exponential(300.0));
    (i % 2 ? a : b).record(latency);
    all.record(latency);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.p99_us(), all.p99_us());
  EXPECT_NEAR(a.mean_us(), all.mean_us(), 1e-9);
}

TEST(LatencyRecorderTest, BucketCountsSumToTotal) {
  // Property: for any sample sequence, the bucket counts sum to count().
  LatencyRecorder rec;
  Rng rng(6);
  for (int i = 0; i < 10'000; ++i) {
    // Log-uniform from 1 ns to 1000 s: below the first edge, through every
    // bucket, and far into the clamp bucket.
    rec.record(static_cast<SimTime>(std::pow(10.0, rng.uniform(0.0, 12.0))));
    std::uint64_t sum = 0;
    for (std::size_t b = 0; b < LatencyRecorder::kBuckets; ++b) sum += rec.bucket(b);
    ASSERT_EQ(sum, rec.count());
  }
  EXPECT_EQ(rec.count(), 10'000u);
  EXPECT_GT(rec.bucket(0), 0u);
  EXPECT_GT(rec.bucket(LatencyRecorder::kBuckets - 1), 0u);
}

TEST(LatencyRecorderTest, DriverPopulatesPercentiles) {
  // Smoke: the NVMe driver fills the recorders.
  // (Full driver behaviour is covered in tests/nvme.)
  LatencyRecorder rec;
  for (int i = 0; i < 100; ++i) rec.record(microseconds(75.0 + i));
  EXPECT_GT(rec.p99_us(), rec.p50_us() * 0.9);
}

}  // namespace
}  // namespace src::common
