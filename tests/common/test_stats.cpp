#include "common/stats.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace src::common {
namespace {

TEST(RunningStatsTest, MeanVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(RunningStatsTest, ScvOfConstantIsZero) {
  RunningStats s;
  for (int i = 0; i < 10; ++i) s.add(3.0);
  EXPECT_DOUBLE_EQ(s.scv(), 0.0);
  EXPECT_DOUBLE_EQ(s.skewness(), 0.0);
}

TEST(RunningStatsTest, ScvMatchesDefinition) {
  RunningStats s;
  Rng rng(11);
  for (int i = 0; i < 100'000; ++i) s.add(rng.exponential(5.0));
  EXPECT_NEAR(s.scv(), s.variance() / (s.mean() * s.mean()), 1e-12);
}

TEST(RunningStatsTest, SkewnessSignOfExponential) {
  RunningStats s;
  Rng rng(12);
  for (int i = 0; i < 100'000; ++i) s.add(rng.exponential(1.0));
  EXPECT_NEAR(s.skewness(), 2.0, 0.15);  // exponential skewness = 2
}

TEST(RunningStatsTest, MergeEqualsConcatenation) {
  RunningStats a, b, all;
  Rng rng(13);
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.normal(2.0, 3.0);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_NEAR(a.skewness(), all.skewness(), 1e-6);
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(Lag1AutocorrelationTest, IidIsNearZero) {
  Lag1Autocorrelation ac;
  Rng rng(14);
  for (int i = 0; i < 100'000; ++i) ac.add(rng.uniform());
  EXPECT_NEAR(ac.value(), 0.0, 0.02);
}

TEST(Lag1AutocorrelationTest, AlternatingIsNegative) {
  Lag1Autocorrelation ac;
  for (int i = 0; i < 1'000; ++i) ac.add(i % 2 ? 1.0 : -1.0);
  EXPECT_LT(ac.value(), -0.9);
}

TEST(Lag1AutocorrelationTest, SmoothSeriesIsPositive) {
  Lag1Autocorrelation ac;
  Rng rng(15);
  double x = 0.0;
  for (int i = 0; i < 100'000; ++i) {
    x = 0.95 * x + rng.normal();  // AR(1), rho ~ 0.95
    ac.add(x);
  }
  EXPECT_GT(ac.value(), 0.9);
}

TEST(ThroughputTimelineTest, BinningAndRates) {
  ThroughputTimeline tl(kMillisecond);
  tl.record(0, 1000);
  tl.record(kMillisecond / 2, 1000);
  tl.record(3 * kMillisecond, 500);
  EXPECT_EQ(tl.bin_count(), 4u);
  EXPECT_EQ(tl.bin_bytes(0), 2000u);
  EXPECT_EQ(tl.bin_bytes(1), 0u);
  EXPECT_EQ(tl.bin_bytes(3), 500u);
  EXPECT_DOUBLE_EQ(tl.bin_rate(0).as_bytes_per_second(), 2000.0 / 1e-3);
  EXPECT_EQ(tl.total_bytes(), 2500u);
}

TEST(ThroughputTimelineTest, TrimmedMeanDropsEdges) {
  ThroughputTimeline tl(kMillisecond);
  // 10 bins: huge first and last bins, constant middle.
  tl.record(0, 1'000'000);
  for (int i = 1; i < 9; ++i) tl.record(i * kMillisecond, 1000);
  tl.record(9 * kMillisecond, 1'000'000);
  const double rate = tl.trimmed_mean_rate(0.1, 0.1).as_bytes_per_second();
  EXPECT_DOUBLE_EQ(rate, 1000.0 / 1e-3);
}

TEST(ThroughputTimelineTest, MergeAddsBinwise) {
  ThroughputTimeline a(kMillisecond), b(kMillisecond);
  a.record(0, 10);
  b.record(0, 5);
  b.record(2 * kMillisecond, 7);
  a.merge(b);
  EXPECT_EQ(a.bin_bytes(0), 15u);
  EXPECT_EQ(a.bin_bytes(2), 7u);
}

TEST(EventTimelineTest, CountsAndMerge) {
  EventTimeline a(kMillisecond), b(kMillisecond);
  a.record(0);
  a.record(100);
  b.record(kMillisecond, 3);
  a.merge(b);
  EXPECT_EQ(a.bin(0), 2u);
  EXPECT_EQ(a.bin(1), 3u);
  EXPECT_EQ(a.total(), 5u);
}

}  // namespace
}  // namespace src::common
