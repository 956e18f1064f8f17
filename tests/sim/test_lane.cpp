// LaneGroup: the conservative sharded event engine (DESIGN.md §14). These
// run under `-L unit`, which the tsan CI job executes — the multi-lane
// cases double as the cross-lane mailbox and shard-migration data-race
// check.
#include "sim/lane.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "obs/obs.hpp"

namespace src::sim {
namespace {

using common::SimTime;

TEST(LaneGroupTest, LaneCountClampsToShardCount) {
  LaneGroup lanes(3, 16);
  EXPECT_EQ(lanes.shard_count(), 3u);
  EXPECT_EQ(lanes.lane_count(), 3u);
  LaneGroup serial(4, 0);
  EXPECT_EQ(serial.lane_count(), 1u);
}

TEST(LaneGroupTest, LookaheadMustBePositive) {
  LaneGroup lanes(2, 1);
  EXPECT_THROW(lanes.set_lookahead(0), std::invalid_argument);
  lanes.set_lookahead(5);
  EXPECT_EQ(lanes.lookahead(), 5);
}

TEST(LaneGroupTest, SameShardPostSchedulesDirectly) {
  LaneGroup lanes(2, 1);
  lanes.set_lookahead(10);
  std::vector<int> order;
  // Same-shard posts ignore the lookahead: they go straight into the
  // shard's own calendar.
  lanes.post(0, 0, 3, Simulator::Callback([&order] { order.push_back(3); }));
  lanes.post(0, 0, 1, Simulator::Callback([&order] { order.push_back(1); }));
  lanes.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(lanes.cross_shard_messages(), 0u);
  EXPECT_TRUE(lanes.drained());
}

TEST(LaneGroupTest, CrossShardPostBelowLookaheadThrows) {
  LaneGroup lanes(2, 1);
  lanes.set_lookahead(10);
  // From shard 0 at t=0, the earliest legal cross-shard delivery is t=10.
  EXPECT_THROW(
      lanes.post(0, 1, 9, Simulator::Callback([] {})),
      std::logic_error);
  lanes.post(0, 1, 10, Simulator::Callback([] {}));
  lanes.run_until(100);
  EXPECT_EQ(lanes.cross_shard_messages(), 1u);
}

// The determinism contract: deliveries landing at the same destination
// time drain in (when, src_shard, post_seq) order, independent of which
// lane executed the sources.
TEST(LaneGroupTest, MailboxMergeOrderIsWhenSrcSeq) {
  for (const std::size_t lane_count : {1u, 2u, 3u}) {
    LaneGroup lanes(3, lane_count);
    lanes.set_lookahead(10);
    std::vector<std::pair<int, int>> order;  // (src, seq-within-src)
    // Shards 1 and 2 each post two deliveries to shard 0, all at t=10.
    for (const std::size_t src : {1u, 2u}) {
      lanes.kernel(src).schedule_at(0, [&lanes, &order, src] {
        for (int i = 0; i < 2; ++i) {
          lanes.post(src, 0, 10,
                     Simulator::Callback([&order, src, i] {
                       order.emplace_back(static_cast<int>(src), i);
                     }));
        }
      });
    }
    lanes.run_until(100);
    const std::vector<std::pair<int, int>> want = {
        {1, 0}, {1, 1}, {2, 0}, {2, 1}};
    EXPECT_EQ(order, want) << "lane_count=" << lane_count;
    EXPECT_EQ(lanes.cross_shard_messages(), 4u);
  }
}

// Two shards ping-pong a token through the mailboxes; the hop count and
// final clock must match the analytic value at every lane count.
TEST(LaneGroupTest, CrossShardPingPong) {
  for (const std::size_t lane_count : {1u, 2u}) {
    LaneGroup lanes(2, lane_count);
    const SimTime hop = 7;
    lanes.set_lookahead(hop);
    int hops = 0;
    // Self-referential bounce: declared std::function so the lambda can
    // capture itself by reference.
    std::function<void(std::size_t)> bounce = [&](std::size_t at) {
      ++hops;
      if (hops >= 20) return;
      const std::size_t to = 1 - at;
      lanes.post(at, to, lanes.kernel(at).now() + hop,
                 Simulator::Callback([&bounce, to] { bounce(to); }));
    };
    lanes.kernel(0).schedule_at(0, [&bounce] { bounce(0); });
    // First hop fires at t=0 on shard 0; hop k fires at t=k*hop, so the
    // 20th and last lands at 19*hop. Run exactly that far: drained kernels
    // then advance to the deadline, like a lone Simulator's run_until.
    lanes.run_until(19 * hop);
    EXPECT_EQ(hops, 20) << "lane_count=" << lane_count;
    EXPECT_TRUE(lanes.drained());
    EXPECT_EQ(lanes.now(), 19 * hop);
    EXPECT_EQ(lanes.cross_shard_messages(), 19u);
  }
}

// run_until leaves all lanes quiescent: the caller may inspect and mutate
// shard state between calls, and events exactly at the deadline execute.
// Each shard logs to its own vector: shards 0 and 1 run on different lanes
// in the same window.
TEST(LaneGroupTest, RunUntilIsInclusiveAndResumable) {
  LaneGroup lanes(2, 2);
  lanes.set_lookahead(10);
  std::vector<SimTime> fired[2];
  for (const SimTime t : {5, 50, 55}) {
    lanes.kernel(1).schedule_at(t, [&fired, t] { fired[1].push_back(t); });
  }
  lanes.run_until(50);
  EXPECT_EQ(fired[1], (std::vector<SimTime>{5, 50}));
  EXPECT_FALSE(lanes.drained());
  // Quiescent gap: schedule more work, then resume.
  lanes.kernel(0).schedule_at(52, [&fired] { fired[0].push_back(52); });
  lanes.run_until(100);
  EXPECT_EQ(fired[0], (std::vector<SimTime>{52}));
  EXPECT_EQ(fired[1], (std::vector<SimTime>{5, 50, 55}));
  EXPECT_TRUE(lanes.drained());
  EXPECT_EQ(lanes.now(), 100);
}

// Heavier cross-lane traffic for tsan: eight tokens circulate over four
// shards with different strides, so every (src, dst) mailbox pair carries
// concurrent traffic for many windows. The checksum is lane-count
// invariant.
TEST(LaneGroupTest, CirculatingTokensAreLaneCountInvariant) {
  std::uint64_t want_sum = 0;
  std::uint64_t want_events = 0;
  for (const std::size_t lane_count : {1u, 4u}) {
    constexpr std::size_t kShards = 4;
    LaneGroup lanes(kShards, lane_count);
    lanes.set_lookahead(3);
    std::uint64_t sums[kShards] = {};
    std::function<void(std::size_t, std::size_t, int)> hop =
        [&](std::size_t at, std::size_t stride, int round) {
          sums[at] += static_cast<std::uint64_t>(round + 1) * (at + 1);
          if (round >= 200) return;
          const std::size_t dst = (at + stride) % kShards;
          lanes.post(at, dst, lanes.kernel(at).now() + 3,
                     Simulator::Callback([&hop, dst, stride, round] {
                       hop(dst, stride, round + 1);
                     }));
        };
    for (std::size_t s = 0; s < kShards; ++s) {
      for (const std::size_t stride : {1u, 3u}) {
        lanes.kernel(s).schedule_at(0, [&hop, s, stride] { hop(s, stride, 0); });
      }
    }
    lanes.run_until(common::kSecond);
    std::uint64_t sum = 0;
    for (const std::uint64_t s : sums) sum += s;
    if (lane_count == 1) {
      want_sum = sum;
      want_events = lanes.executed_events();
      EXPECT_GT(sum, 0u);
    } else {
      EXPECT_EQ(sum, want_sum);
      EXPECT_EQ(lanes.executed_events(), want_events);
    }
  }
}

// Skewed load: shards 0 and 12 run ten times the events of the others and
// start on the same lane at every lane count > 1 (12 % {2, 3, 4} == 0).
// Over hundreds of windows the event-count placement must split them, and
// the execution must stay bit-identical while shards migrate.
TEST(LaneGroupTest, SkewedLoadRebalancesWithoutChangingResults) {
  constexpr std::size_t kShards = 13;
  constexpr SimTime kHop = 5;
  constexpr SimTime kEnd = 20000;
  std::uint64_t want_digest = 0;
  std::uint64_t want_windows = 0;
  std::uint64_t want_events = 0;
  for (const std::size_t lane_count : {1u, 2u, 3u, 4u}) {
    LaneGroup lanes(kShards, lane_count);
    lanes.set_lookahead(kHop);
    std::vector<std::size_t> initial;
    for (std::size_t s = 0; s < kShards; ++s) initial.push_back(lanes.lane_of(s));
    // Per-shard order-sensitive digests, each written only by its shard.
    std::vector<std::uint64_t> digest(kShards, 0);
    auto fold = [&digest](std::size_t at, std::uint64_t value) {
      digest[at] = digest[at] * 1099511628211ull ^ value;
    };
    std::function<void(std::size_t, std::uint64_t)> tick =
        [&](std::size_t at, std::uint64_t value) {
          Simulator& k = lanes.kernel(at);
          fold(at, value + static_cast<std::uint64_t>(k.now()));
          if (k.now() >= kEnd) return;
          const bool heavy = at == 0 || at == 12;
          k.schedule_in(heavy ? 1 : 10,
                        [&tick, at, value] { tick(at, value + 1); });
          if (value % 8 == 0) {
            const std::size_t dst = (at + 1 + value % (kShards - 1)) % kShards;
            lanes.post(at, dst, k.now() + kHop + static_cast<SimTime>(value % 3),
                       Simulator::Callback([&fold, dst, value] {
                         fold(dst, value);
                       }));
          }
        };
    for (std::size_t s = 0; s < kShards; ++s) {
      lanes.kernel(s).schedule_at(0, [&tick, s] { tick(s, s); });
    }
    // Several run_until calls: placement persists across them.
    for (SimTime deadline = kEnd / 4; deadline <= kEnd + kHop;
         deadline += kEnd / 4) {
      lanes.run_until(deadline);
    }
    lanes.run_until(2 * kEnd);
    ASSERT_TRUE(lanes.drained());
    std::uint64_t all = 0;
    for (const std::uint64_t d : digest) all = all * 31 + d;
    if (lane_count == 1) {
      want_digest = all;
      want_windows = lanes.windows_executed();
      want_events = lanes.executed_events();
      EXPECT_GT(want_windows, 1000u);
      continue;
    }
    EXPECT_EQ(all, want_digest) << "lane_count=" << lane_count;
    EXPECT_EQ(lanes.windows_executed(), want_windows)
        << "lane_count=" << lane_count;
    EXPECT_EQ(lanes.executed_events(), want_events)
        << "lane_count=" << lane_count;
    std::vector<std::size_t> placed;
    for (std::size_t s = 0; s < kShards; ++s) placed.push_back(lanes.lane_of(s));
    EXPECT_NE(placed, initial) << "lane_count=" << lane_count;
    EXPECT_NE(lanes.lane_of(0), lanes.lane_of(12))
        << "lane_count=" << lane_count;
  }
}

// A trace-replay series on every shard, whose items post cross-shard mail:
// results, event counts and window counts are the same at lanes 1, 2 and 4.
TEST(LaneGroupTest, SeriesOnShardsIsLaneCountInvariant) {
  constexpr std::size_t kShards = 4;
  constexpr SimTime kHop = 7;
  std::vector<std::uint64_t> want_digest;
  std::uint64_t want_events = 0;
  std::uint64_t want_windows = 0;
  for (const std::size_t lane_count : {1u, 2u, 4u}) {
    LaneGroup lanes(kShards, lane_count);
    lanes.set_lookahead(kHop);
    // Per-shard order-sensitive digests, each written only by its shard.
    std::vector<std::uint64_t> digest(kShards, 0);
    auto fold = [&digest](std::size_t at, std::uint64_t value) {
      digest[at] = digest[at] * 1099511628211ull ^ value;
    };
    for (std::size_t s = 0; s < kShards; ++s) {
      Simulator& k = lanes.kernel(s);
      k.schedule_series(
          500,
          [s](std::size_t i) { return static_cast<SimTime>(i * (s + 1) / 2); },
          [&lanes, &fold, &k, s](std::size_t i) {
            fold(s, i + static_cast<std::uint64_t>(k.now()));
            const std::size_t dst = (s + 1 + i % (kShards - 1)) % kShards;
            lanes.post(s, dst, k.now() + kHop + static_cast<SimTime>(i % 3),
                       Simulator::Callback([&fold, dst, i] { fold(dst, i * 31); }));
          });
    }
    lanes.run_until(300);
    lanes.run_until(common::kSecond);
    ASSERT_TRUE(lanes.drained());
    if (lane_count == 1) {
      want_digest = digest;
      want_events = lanes.executed_events();
      want_windows = lanes.windows_executed();
      EXPECT_EQ(want_events, 2u * kShards * 500);
      continue;
    }
    EXPECT_EQ(digest, want_digest) << "lane_count=" << lane_count;
    EXPECT_EQ(lanes.executed_events(), want_events) << "lane_count=" << lane_count;
    EXPECT_EQ(lanes.windows_executed(), want_windows)
        << "lane_count=" << lane_count;
  }
}

// Mail posted in the last window before the deadline lands beyond it; it
// must already sit in the destination kernels when run_until returns, and
// fire exactly once on the next call.
TEST(LaneGroupTest, LastWindowMailIsDeliveredBeforeRunUntilReturns) {
  for (const std::size_t lane_count : {1u, 2u, 3u, 4u}) {
    LaneGroup lanes(4, lane_count);
    lanes.set_lookahead(10);
    std::vector<int> fired(4, 0);  // per destination shard
    lanes.kernel(0).schedule_at(95, [&lanes, &fired] {
      for (std::size_t dst = 1; dst < 4; ++dst) {
        lanes.post(0, dst, 105,
                   Simulator::Callback([&fired, dst] { ++fired[dst]; }));
      }
    });
    lanes.run_until(100);
    EXPECT_EQ(fired, (std::vector<int>{0, 0, 0, 0}));
    for (std::size_t dst = 1; dst < 4; ++dst) {
      EXPECT_EQ(lanes.kernel(dst).pending_events(), 1u)
          << "dst=" << dst << " lane_count=" << lane_count;
      EXPECT_EQ(lanes.kernel(dst).next_event_time(), 105)
          << "dst=" << dst << " lane_count=" << lane_count;
    }
    EXPECT_FALSE(lanes.drained());
    lanes.run_until(200);
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 1, 1}))
        << "lane_count=" << lane_count;
    EXPECT_TRUE(lanes.drained());
  }
}

// Cross-lane mailbox stress for tsan: 64 shards each bounce a token,
// alternating between a ping-pong partner (s ^ 1) and a far shard, with
// varying delays, for long enough that placement runs many times. The
// checksums, event and window counts are lane-count invariant.
TEST(LaneGroupTest, SixtyFourShardPingPongIsLaneCountInvariant) {
  constexpr std::size_t kShards = 64;
  constexpr SimTime kLookahead = 3;
  std::vector<std::uint64_t> want_sums;
  std::uint64_t want_events = 0;
  std::uint64_t want_windows = 0;
  for (const std::size_t lane_count : {1u, 2u, 3u, 4u}) {
    LaneGroup lanes(kShards, lane_count);
    lanes.set_lookahead(kLookahead);
    std::vector<std::uint64_t> sums(kShards, 0);
    std::function<void(std::size_t, int)> hop = [&](std::size_t at, int round) {
      sums[at] = sums[at] * 3 + static_cast<std::uint64_t>(round + 1) * (at + 1);
      if (round >= 300) return;
      const std::size_t dst = round % 2 == 0 ? (at ^ 1u) : (at + 17) % kShards;
      const SimTime delay =
          kLookahead + static_cast<SimTime>((at + static_cast<std::size_t>(round)) % 4);
      lanes.post(at, dst, lanes.kernel(at).now() + delay,
                 Simulator::Callback([&hop, dst, round] { hop(dst, round + 1); }));
    };
    for (std::size_t s = 0; s < kShards; ++s) {
      lanes.kernel(s).schedule_at(static_cast<SimTime>(s % 5),
                                  [&hop, s] { hop(s, 0); });
    }
    lanes.run_until(common::kSecond);
    EXPECT_TRUE(lanes.drained());
    if (lane_count == 1) {
      want_sums = sums;
      want_events = lanes.executed_events();
      want_windows = lanes.windows_executed();
      EXPECT_EQ(lanes.cross_shard_messages(), kShards * 300u);
      continue;
    }
    EXPECT_EQ(sums, want_sums) << "lane_count=" << lane_count;
    EXPECT_EQ(lanes.executed_events(), want_events)
        << "lane_count=" << lane_count;
    EXPECT_EQ(lanes.windows_executed(), want_windows)
        << "lane_count=" << lane_count;
  }
}

// Lanes record: six shards each count, set a gauge, fill a latency
// histogram and emit trace events while tokens circulate among them. The
// caller's observatory must hold the same record, byte for byte, at every
// lane count — shard 0 writes it directly, the other shards' private
// observatories merge in shard order after each run_until — and the trace
// ring, small enough to wrap, must count every event it saw.
TEST(LaneGroupTest, ObservatoryRecordIsLaneCountInvariant) {
#if defined(SRC_OBS_DISABLE)
  GTEST_SKIP() << "instrumentation is compiled out";
#endif
  constexpr std::size_t kShards = 6;
  constexpr int kRounds = 300;
  constexpr std::size_t kCapacity = 512;
  struct Record {
    std::string metrics;
    std::string trace;
    std::uint64_t hops = 0;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
  };
  const auto record_at = [](std::size_t lane_count) {
    obs::Observatory observatory(obs::ObsConfig{true, kCapacity});
    const obs::ObsScope scope(&observatory);
    LaneGroup lanes(kShards, lane_count);
    lanes.set_lookahead(3);
    std::function<void(std::size_t, std::size_t, int)> hop =
        [&](std::size_t at, std::size_t stride, int round) {
          const SimTime now = lanes.kernel(at).now();
          SRC_OBS_COUNT("lane.hops");
          SRC_OBS_COUNT_ADD("lane.weighted_hops", at + 1);
          SRC_OBS_GAUGE("lane.last_round", round);
          SRC_OBS_LATENCY_US("lane.hop_us", (now % 97) * common::kMicrosecond);
          SRC_OBS_INSTANT("sim", "hop", now, static_cast<std::uint32_t>(at),
                          static_cast<double>(round));
          SRC_OBS_TRACE_COUNTER("sim", "round", now,
                                static_cast<std::uint32_t>(at + 1),
                                static_cast<double>(round));
          if (round >= kRounds) return;
          const std::size_t dst = (at + stride) % kShards;
          lanes.post(at, dst, now + 3 + static_cast<SimTime>(at),
                     Simulator::Callback([&hop, dst, stride, round] {
                       hop(dst, stride, round + 1);
                     }));
        };
    for (std::size_t s = 0; s < kShards; ++s) {
      for (const std::size_t stride : {1u, 5u}) {
        lanes.kernel(s).schedule_at(0, [&hop, s, stride] { hop(s, stride, 0); });
      }
    }
    // Several calls, so merges interleave with shard 0's direct writes;
    // the later, longer ones overflow the private rings too.
    for (SimTime deadline = 400; !lanes.drained(); deadline *= 2) {
      lanes.run_until(deadline);
    }
    return Record{observatory.metrics_json(), observatory.trace_json(),
                  observatory.metrics().find_counter("lane.hops")->value(),
                  observatory.tracer().recorded(),
                  observatory.tracer().dropped()};
  };

  const Record one = record_at(1);
  constexpr std::uint64_t kHops = kShards * 2 * (kRounds + 1);
  EXPECT_EQ(one.hops, kHops);
  EXPECT_EQ(one.recorded, 2 * kHops);
  EXPECT_EQ(one.dropped, 2 * kHops - kCapacity);
  for (const std::size_t lane_count : {2u, 4u}) {
    const Record lanes = record_at(lane_count);
    EXPECT_EQ(lanes.metrics, one.metrics) << "metrics drifted at lanes=" << lane_count;
    EXPECT_EQ(lanes.trace, one.trace) << "trace drifted at lanes=" << lane_count;
    EXPECT_EQ(lanes.recorded, one.recorded);
  }
}

// No observatory current: shards record nothing and run unobserved.
TEST(LaneGroupTest, NoObservatoryRecordsNothing) {
  LaneGroup lanes(3, 3);
  lanes.set_lookahead(2);
  bool observed[3] = {true, true, true};  // one slot per shard: no race
  for (std::size_t s = 0; s < 3; ++s) {
    lanes.kernel(s).schedule_at(1, [&observed, s] {
      observed[s] = obs::current() != nullptr;
    });
  }
  lanes.run_until(10);
  for (const bool o : observed) EXPECT_FALSE(o);
}

}  // namespace
}  // namespace src::sim
