#include "workload/mmpp.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/stats.hpp"

namespace src::workload {
namespace {

TEST(Mmpp2Test, StationaryMeanRate) {
  Mmpp2Params params;
  params.rate_quiet = 10'000;
  params.rate_burst = 100'000;
  params.sojourn_quiet_s = 4e-3;
  params.sojourn_burst_s = 1e-3;
  // pi_burst = 0.2 -> mean = 0.8*10k + 0.2*100k = 28k.
  EXPECT_NEAR(params.mean_rate(), 28'000.0, 1e-6);
  EXPECT_NEAR(params.burst_fraction(), 0.2, 1e-12);
}

TEST(Mmpp2Test, GeneratorMatchesAnalyticMean) {
  Mmpp2Params params;
  params.rate_quiet = 20'000;
  params.rate_burst = 200'000;
  params.sojourn_quiet_s = 2e-3;
  params.sojourn_burst_s = 0.5e-3;
  Mmpp2Generator gen(params, common::Rng(3));
  common::RunningStats stats;
  for (int i = 0; i < 300'000; ++i) stats.add(gen.next_iat_us());
  EXPECT_NEAR(stats.mean(), params.mean_iat_us(), params.mean_iat_us() * 0.03);
}

TEST(Mmpp2Test, BurstyProcessHasHighScv) {
  Mmpp2Params params;
  params.rate_quiet = 5'000;
  params.rate_burst = 500'000;
  params.sojourn_quiet_s = 10e-3;
  params.sojourn_burst_s = 2e-3;
  Mmpp2Generator gen(params, common::Rng(4));
  common::RunningStats stats;
  for (int i = 0; i < 200'000; ++i) stats.add(gen.next_iat_us());
  EXPECT_GT(stats.scv(), 2.0);
}

double simulated_scv(const Mmpp2Params& params, std::uint64_t seed, int samples) {
  Mmpp2Generator gen(params, common::Rng(seed));
  common::RunningStats stats;
  for (int i = 0; i < samples; ++i) stats.add(gen.next_iat_us());
  return stats.scv();
}

TEST(Mmpp2IatScvTest, EqualRatesArePoisson) {
  Mmpp2Params params;
  params.rate_quiet = params.rate_burst = 75'000;
  for (const double sojourn_s : {1e-6, 1e-3, 10.0}) {
    params.sojourn_quiet_s = 3.0 * sojourn_s;
    params.sojourn_burst_s = sojourn_s;
    EXPECT_NEAR(mmpp2_iat_scv(params), 1.0, 1e-12) << "sojourn " << sojourn_s;
  }
}

TEST(Mmpp2IatScvTest, LongSojournsApproachHyperExponentialLimit) {
  // With regimes that (almost) never switch between arrivals, the IAT is an
  // H2 mixture: phase i with weight pi_i * l_i / mean_rate, rate l_i. At
  // ratio 10 and burst fraction 0.2: SCV = 2 * 2.8 * 0.82 - 1 = 3.592.
  Mmpp2Params params;
  params.rate_quiet = 10'000;
  params.rate_burst = 100'000;
  params.sojourn_quiet_s = 0.8e6;
  params.sojourn_burst_s = 0.2e6;
  EXPECT_NEAR(mmpp2_iat_scv(params), 3.592, 1e-6);
}

TEST(Mmpp2IatScvTest, AgreesWithSimulation) {
  std::vector<Mmpp2Params> cases(3);
  cases[1].rate_quiet = 20'000;  // ratio 25, near-even regime split
  cases[1].rate_burst = 500'000;
  cases[1].sojourn_quiet_s = 0.4e-3;
  cases[1].sojourn_burst_s = 0.3e-3;
  cases[2] = fit_mmpp2(10.0, 6.0);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const double exact = mmpp2_iat_scv(cases[i]);
    EXPECT_GT(exact, 1.5) << "case " << i;
    EXPECT_NEAR(simulated_scv(cases[i], 17 + i, 20'000'000), exact, exact * 0.01)
        << "case " << i;
  }
}

TEST(FitMmpp2Test, PoissonWhenScvIsOne) {
  const auto params = fit_mmpp2(10.0, 1.0);
  EXPECT_DOUBLE_EQ(params.rate_quiet, params.rate_burst);
  EXPECT_NEAR(params.mean_iat_us(), 10.0, 1e-9);
}

TEST(FitMmpp2Test, MatchesTargetMomentsExactly) {
  for (double target : {2.0, 2.5, 6.0, 30.0}) {
    const auto params = fit_mmpp2(10.0, target);
    EXPECT_NEAR(params.mean_iat_us(), 10.0, 1e-9) << "target scv " << target;
    EXPECT_NEAR(mmpp2_iat_scv(params), target, target * 1e-6)
        << "target scv " << target;
  }
}

TEST(FitMmpp2Test, HitsTargetScv) {
  for (double target : {2.0, 2.5, 4.0, 6.0, 8.0}) {
    const auto params = fit_mmpp2(10.0, target);
    Mmpp2Generator gen(params, common::Rng(99));
    common::RunningStats stats;
    for (int i = 0; i < 2'000'000; ++i) stats.add(gen.next_iat_us());
    EXPECT_NEAR(stats.mean(), 10.0, 0.1) << "target scv " << target;
    EXPECT_NEAR(stats.scv(), target, target * 0.03) << "target scv " << target;
  }
}

TEST(SyntheticTest, DeterministicAndSorted) {
  const auto params = fujitsu_vdi_like(500);
  const Trace a = generate_synthetic(params, 5);
  const Trace b = generate_synthetic(params, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    if (i > 0) {
      EXPECT_LE(a[i - 1].arrival, a[i].arrival);
    }
  }
}

TEST(SyntheticTest, VdiPresetMatchesPaperStatistics) {
  const Trace trace = generate_synthetic(fujitsu_vdi_like(20'000), 21);
  const auto stats = analyze(trace);
  // Paper SIV-D: read 44 KB / write 23 KB mean sizes, ~10 us IATs both.
  EXPECT_NEAR(stats.read.mean_size_bytes, 44.0 * 1024, 4000.0);
  EXPECT_NEAR(stats.write.mean_size_bytes, 23.0 * 1024, 2500.0);
  EXPECT_NEAR(stats.read.mean_iat_us, 10.0, 1.0);
  EXPECT_NEAR(stats.write.mean_iat_us, 10.0, 1.0);
  // Bursty arrivals: SCV well above Poisson.
  EXPECT_GT(stats.read.scv_iat, 1.5);
}

TEST(SyntheticTest, CbsPresetIsWriteHeavy) {
  const Trace trace = generate_synthetic(tencent_cbs_like(10'000), 23);
  const auto stats = analyze(trace);
  EXPECT_GT(stats.write.flow_speed_bytes_per_sec, stats.read.flow_speed_bytes_per_sec);
}

TEST(SyntheticTest, SizeScvControlled) {
  SyntheticParams params = fujitsu_vdi_like(20'000);
  params.read.size_scv = 0.1;
  const Trace low = generate_synthetic(params, 31);
  params.read.size_scv = 3.0;
  const Trace high = generate_synthetic(params, 31);
  EXPECT_LT(analyze(low).read.scv_size, analyze(high).read.scv_size);
}

// The reference the merge replaced: both streams appended, reads first,
// then stable-sorted by arrival (see MicroTest's twin of this check).
Trace concat_sort_reference(const SyntheticParams& params, std::uint64_t seed) {
  SyntheticParams reads_only = params;
  reads_only.write.count = 0;
  SyntheticParams writes_only = params;
  writes_only.read.count = 0;
  Trace reference = generate_synthetic(reads_only, seed);
  const Trace writes = generate_synthetic(writes_only, seed);
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

TEST(SyntheticTest, MergedStreamsEqualConcatenateAndStableSort) {
  common::Rng draw(77);
  for (int round = 0; round < 30; ++round) {
    SyntheticParams params;
    // Bursty arrivals at a mean of about a nanosecond (every fifth round)
    // share arrival instants within and across the streams.
    params.read = SyntheticStreamParams{draw.uniform(0.002, 30.0), draw.uniform(1.0, 8.0),
                                        draw.uniform(4096, 65536), draw.uniform(0.1, 3.0),
                                        draw.uniform_index(1200)};
    params.write = SyntheticStreamParams{draw.uniform(0.002, 30.0), draw.uniform(1.0, 8.0),
                                         draw.uniform(4096, 65536), draw.uniform(0.1, 3.0),
                                         draw.uniform_index(1200)};
    if (round % 5 == 1) params.write.count = 0;
    if (round % 5 == 2) params.read.count = 0;
    if (round % 5 == 4) params.read.mean_iat_us = params.write.mean_iat_us = 0.001;
    const std::uint64_t seed = draw.next_u64();
    SCOPED_TRACE(round);
    expect_same_records(generate_synthetic(params, seed),
                        concat_sort_reference(params, seed));
  }
}

TEST(SyntheticTest, MergeKeepsReadsFirstOnTies) {
  // Poisson streams with a zero mean inter-arrival time: every record of
  // both streams arrives at 0.
  SyntheticParams params;
  params.read = SyntheticStreamParams{0.0, 1.0, 16 * 1024, 0.5, 250};
  params.write = SyntheticStreamParams{0.0, 1.0, 8 * 1024, 0.5, 150};
  const Trace trace = generate_synthetic(params, 9);
  expect_same_records(trace, concat_sort_reference(params, 9));
  ASSERT_EQ(trace.size(), 400u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].arrival, 0);
    EXPECT_EQ(trace[i].type, i < 250 ? IoType::kRead : IoType::kWrite);
  }
}

}  // namespace
}  // namespace src::workload
