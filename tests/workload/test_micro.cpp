#include "workload/micro.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "common/rng.hpp"

namespace src::workload {
namespace {

TEST(MicroTest, DeterministicForSeed) {
  const auto params = symmetric_micro(10.0, 32 * 1024, 500);
  const Trace a = generate_micro(params, 7);
  const Trace b = generate_micro(params, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].lba, b[i].lba);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
  }
}

TEST(MicroTest, DifferentSeedsDiffer) {
  const auto params = symmetric_micro(10.0, 32 * 1024, 100);
  const Trace a = generate_micro(params, 1);
  const Trace b = generate_micro(params, 2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].arrival != b[i].arrival) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(MicroTest, CountsMatchParams) {
  MicroParams params = symmetric_micro(10.0, 32 * 1024, 300);
  params.write.count = 100;
  const Trace trace = generate_micro(params, 3);
  const auto stats = analyze(trace);
  EXPECT_EQ(stats.read.count, 300u);
  EXPECT_EQ(stats.write.count, 100u);
}

TEST(MicroTest, SortedByArrival) {
  const Trace trace = generate_micro(symmetric_micro(10.0, 32 * 1024, 1000), 5);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].arrival, trace[i].arrival);
  }
}

TEST(MicroTest, MeanIatApproximatesTarget) {
  const Trace trace = generate_micro(symmetric_micro(25.0, 32 * 1024, 20'000), 9);
  const auto stats = analyze(trace);
  EXPECT_NEAR(stats.read.mean_iat_us, 25.0, 1.0);
  EXPECT_NEAR(stats.write.mean_iat_us, 25.0, 1.0);
  // Exponential IAT: SCV ~ 1.
  EXPECT_NEAR(stats.read.scv_iat, 1.0, 0.1);
}

TEST(MicroTest, MeanSizeApproximatesTarget) {
  const Trace trace = generate_micro(symmetric_micro(10.0, 32 * 1024, 20'000), 11);
  const auto stats = analyze(trace);
  EXPECT_NEAR(stats.read.mean_size_bytes, 32.0 * 1024, 2000.0);
}

TEST(MicroTest, SizesAlignedAndBounded) {
  MicroParams params = symmetric_micro(10.0, 64 * 1024, 5000);
  params.align_bytes = 4096;
  params.min_size_bytes = 4096;
  params.max_size_bytes = 256 * 1024;
  const Trace trace = generate_micro(params, 13);
  for (const auto& rec : trace) {
    EXPECT_EQ(rec.bytes % 4096, 0u);
    EXPECT_GE(rec.bytes, 4096u);
    EXPECT_LE(rec.bytes, 256u * 1024);
    EXPECT_EQ(rec.lba % 4096, 0u);
    EXPECT_LT(rec.lba, params.lba_space_bytes);
  }
}

// The reference the merge replaced: both streams appended, reads first,
// then stable-sorted by arrival. Each stream on its own is a generate_micro
// call with the other stream's count at 0: the streams draw from separate
// forks of the seed, so a stream does not depend on the other's count.
Trace concat_sort_reference(const MicroParams& params, std::uint64_t seed) {
  MicroParams reads_only = params;
  reads_only.write.count = 0;
  MicroParams writes_only = params;
  writes_only.read.count = 0;
  Trace reference = generate_micro(reads_only, seed);
  const Trace writes = generate_micro(writes_only, seed);
  reference.insert(reference.end(), writes.begin(), writes.end());
  sort_by_arrival(reference);
  return reference;
}

void expect_same_records(const Trace& got, const Trace& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].arrival, want[i].arrival) << "record " << i;
    EXPECT_EQ(got[i].type, want[i].type) << "record " << i;
    EXPECT_EQ(got[i].lba, want[i].lba) << "record " << i;
    EXPECT_EQ(got[i].bytes, want[i].bytes) << "record " << i;
  }
}

TEST(MicroTest, MergedStreamsEqualConcatenateAndStableSort) {
  common::Rng draw(2024);
  for (int round = 0; round < 40; ++round) {
    MicroParams params;
    // Mean inter-arrival times down to a fraction of a nanosecond put many
    // records of both streams on the same arrival instant.
    params.read = StreamParams{draw.uniform(0.0005, 30.0), draw.uniform(4096, 65536),
                               draw.uniform_index(1500)};
    params.write = StreamParams{draw.uniform(0.0005, 30.0), draw.uniform(4096, 65536),
                                draw.uniform_index(1500)};
    if (round % 5 == 1) params.write.count = 0;
    if (round % 5 == 2) params.read.count = 0;
    if (round % 5 == 3) params.zipf_theta = 0.99;
    const std::uint64_t seed = draw.next_u64();
    SCOPED_TRACE(round);
    expect_same_records(generate_micro(params, seed), concat_sort_reference(params, seed));
  }
}

TEST(MicroTest, MergeKeepsReadsFirstOnTies) {
  // A zero mean inter-arrival time puts every record of both streams at 0.
  MicroParams params = symmetric_micro(0.0, 16 * 1024, 300);
  params.write.count = 200;
  const Trace trace = generate_micro(params, 21);
  expect_same_records(trace, concat_sort_reference(params, 21));
  ASSERT_EQ(trace.size(), 500u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].arrival, 0);
    EXPECT_EQ(trace[i].type, i < 300 ? IoType::kRead : IoType::kWrite);
  }
  // Both streams empty, and one empty.
  EXPECT_TRUE(generate_micro(symmetric_micro(5.0, 4096, 0), 3).empty());
  params.read.count = 0;
  expect_same_records(generate_micro(params, 4), concat_sort_reference(params, 4));
}

TEST(MicroTest, FillsTheBufferItIsGiven) {
  const MicroParams params = symmetric_micro(10.0, 32 * 1024, 400);
  Trace storage;
  storage.reserve(800);
  const TraceRecord* buffer = storage.data();
  const Trace trace = generate_micro(params, 8, std::move(storage));
  EXPECT_EQ(trace.data(), buffer);
  expect_same_records(trace, generate_micro(params, 8));
}

}  // namespace
}  // namespace src::workload
