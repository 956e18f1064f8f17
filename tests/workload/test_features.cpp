#include "workload/features.hpp"

#include <gtest/gtest.h>

#include "workload/micro.hpp"

namespace src::workload {
namespace {

TEST(FeaturesTest, ArrayLayoutAndNames) {
  WorkloadFeatures f;
  f.read_ratio = 0.5;
  f.write_flow_speed = 123.0;
  f.write_mean_size = 456.0;
  const auto arr = f.as_array();
  EXPECT_EQ(arr.size(), WorkloadFeatures::kCount);
  EXPECT_DOUBLE_EQ(arr[0], 0.5);
  EXPECT_DOUBLE_EQ(arr[6], 123.0);
  EXPECT_DOUBLE_EQ(arr[8], 456.0);
  EXPECT_EQ(WorkloadFeatures::names()[0], "read_ratio");
  EXPECT_EQ(WorkloadFeatures::names()[6], "write_flow_speed");
  EXPECT_EQ(WorkloadFeatures::names()[8], "write_mean_size");
}

TEST(FeaturesTest, ExtractFromMicroTrace) {
  const Trace trace = generate_micro(symmetric_micro(10.0, 32 * 1024, 5000), 3);
  const auto f = extract_features(trace);
  EXPECT_NEAR(f.read_ratio, 0.5, 0.02);
  EXPECT_GT(f.read_flow_speed, 0.0);
  EXPECT_GT(f.write_flow_speed, 0.0);
  EXPECT_NEAR(f.read_iat_scv, 1.0, 0.2);  // exponential
}

TEST(FeaturesTest, ExplicitWindowRescalesFlowSpeed) {
  Trace trace{{common::microseconds(0), 0, 100'000, common::IoType::kRead},
              {common::microseconds(10), 0, 100'000, common::IoType::kRead}};
  // Observed span is 10 us, but the monitor window is 1 ms: flow speed must
  // use the window.
  const auto f = extract_features(trace, common::kMillisecond);
  EXPECT_NEAR(f.read_flow_speed, 200'000 / 1e-3, 1.0);
}

TEST(FeaturesTest, EmptyWindowIsZero) {
  const auto f = extract_features(std::span<const TraceRecord>{});
  EXPECT_DOUBLE_EQ(f.read_flow_speed, 0.0);
  EXPECT_DOUBLE_EQ(f.read_ratio, 0.0);
}

TEST(FeaturesTest, ReadHeavyMixReflected) {
  MicroParams params = symmetric_micro(10.0, 32 * 1024, 4000);
  params.write.count = 1000;
  params.write.mean_iat_us = 40.0;
  const auto f = extract_features(generate_micro(params, 17));
  EXPECT_GT(f.read_ratio, 0.7);
  EXPECT_GT(f.read_flow_speed, 2.0 * f.write_flow_speed);
}

}  // namespace
}  // namespace src::workload
