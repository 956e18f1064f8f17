#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace src::sim {
namespace {

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimulatorTest, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, ScheduleInIsRelative) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_in(50, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(SimulatorTest, PastEventsClampToNow) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_at(10, [&] { fired_at = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(10, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(SimulatorTest, CancelInvalidIdIsSafe) {
  Simulator sim;
  sim.cancel(EventId{});
  sim.schedule_at(1, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(SimulatorTest, CancelFromWithinEvent) {
  Simulator sim;
  bool second_fired = false;
  const EventId second = sim.schedule_at(20, [&] { second_fired = true; });
  sim.schedule_at(10, [&] { sim.cancel(second); });
  sim.run();
  EXPECT_FALSE(second_fired);
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineInclusive) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(10, [&] { ++count; });
  sim.schedule_at(20, [&] { ++count; });
  sim.schedule_at(21, [&] { ++count; });
  sim.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, RunUntilDoesNotRunPastDeadlineAfterCancelledTop) {
  // A cancelled entry at the top of the calendar must not let run_until
  // hand control to the next live event beyond the deadline.
  Simulator sim;
  bool a_fired = false;
  bool b_fired = false;
  const EventId a = sim.schedule_at(10, [&] { a_fired = true; });
  sim.schedule_at(20, [&] { b_fired = true; });
  sim.cancel(a);
  sim.run_until(15);
  EXPECT_FALSE(a_fired);
  EXPECT_FALSE(b_fired);
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  sim.run_until(20);
  EXPECT_TRUE(b_fired);
  EXPECT_EQ(sim.now(), 20);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenEmpty) {
  Simulator sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500);
}

TEST(SimulatorTest, StepReturnsFalseWhenDrained) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_in(1, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 99);
}

// Regression: cancelling an id whose event already fired used to insert a
// tombstone that nothing ever reclaimed (the old unordered_set design grew
// without bound under handle-cancelling drivers). A stale cancel must be a
// pure no-op.
TEST(SimulatorTest, CancelAfterFireIsNoOpAndDoesNotLeak) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.schedule_at(i, [] {}));
  }
  sim.run();
  EXPECT_EQ(sim.executed_events(), 1000u);
  const std::size_t slots_before = sim.slot_count();
  for (const EventId id : ids) sim.cancel(id);  // all already fired
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  EXPECT_EQ(sim.slot_count(), slots_before);
  // The calendar still works and reuses the retired slots.
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    sim.schedule_in(1, [&] { ++fired; });
  }
  sim.run();
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(sim.slot_count(), slots_before);
}

TEST(SimulatorTest, CancelTwiceCountsOnce) {
  Simulator sim;
  const EventId id = sim.schedule_at(10, [] {});
  sim.cancel(id);
  sim.cancel(id);
  EXPECT_EQ(sim.cancelled_pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  EXPECT_EQ(sim.executed_events(), 0u);
}

// A handle outliving its event must not be able to kill an unrelated event
// that happens to reuse the same arena slot (no ABA).
TEST(SimulatorTest, StaleHandleCannotCancelRecycledSlot) {
  Simulator sim;
  const EventId first = sim.schedule_at(1, [] {});
  sim.run();
  bool second_fired = false;
  sim.schedule_at(2, [&] { second_fired = true; });  // reuses first's slot
  EXPECT_EQ(sim.slot_count(), 1u);
  sim.cancel(first);  // stale: must not touch the new occupant
  sim.run();
  EXPECT_TRUE(second_fired);
}

// The slot arena is bounded by peak concurrency, not by total events.
TEST(SimulatorTest, SlotArenaBoundedByPeakPendingEvents) {
  Simulator sim;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 10; ++i) {
      sim.schedule_in(i, [] {});
    }
    sim.run();
  }
  EXPECT_EQ(sim.executed_events(), 1000u);
  EXPECT_LE(sim.slot_count(), 10u);
}

// Closures above the inline buffer take the boxed path; they must execute
// and destruct exactly like small ones.
TEST(SimulatorTest, OversizedClosuresExecute) {
  struct Big {
    std::uint64_t payload[16] = {};
  };
  static_assert(sizeof(Big) > kCallbackInlineBytes);
  Simulator sim;
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    Big big;
    big.payload[7] = i;
    sim.schedule_at(static_cast<SimTime>(i), [big, &sum] { sum += big.payload[7]; });
  }
  sim.run();
  EXPECT_EQ(sum, 99u * 100u / 2);
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  Simulator sim;
  SimTime last = -1;
  bool monotonic = true;
  std::uint64_t state = 99;
  for (int i = 0; i < 20'000; ++i) {
    const auto when = static_cast<SimTime>(common::splitmix64(state) % 1'000'000);
    sim.schedule_at(when, [&, when] {
      if (when < last) monotonic = false;
      last = when;
    });
  }
  sim.run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(sim.executed_events(), 20'000u);
}

TEST(SimulatorTest, SeriesHoldsOneCalendarEntryAndRunsInOrder) {
  Simulator sim;
  std::vector<std::size_t> fired;
  sim.schedule_series(
      1000, [](std::size_t i) { return static_cast<SimTime>(i / 3); },
      [&](std::size_t i) {
        EXPECT_EQ(sim.now(), static_cast<SimTime>(i / 3));
        fired.push_back(i);
      });
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.slot_count(), 1u);
  sim.run();
  ASSERT_EQ(fired.size(), 1000u);
  for (std::size_t i = 0; i < fired.size(); ++i) EXPECT_EQ(fired[i], i);
  EXPECT_EQ(sim.executed_events(), 1000u);
  EXPECT_EQ(sim.slot_count(), 1u);
}

TEST(SimulatorTest, SeriesRejectsDecreasingTimes) {
  Simulator sim;
  bool fired = false;
  EXPECT_THROW(sim.schedule_series(
                   3, [](std::size_t i) { return i == 1 ? SimTime{5} : SimTime{10}; },
                   [&](std::size_t) { fired = true; }),
               std::invalid_argument);
  EXPECT_TRUE(sim.empty());
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(SimulatorTest, EmptySeriesIsANoOp) {
  Simulator sim;
  sim.schedule_series(
      0, [](std::size_t) -> SimTime { throw std::logic_error("at called"); },
      [](std::size_t) { throw std::logic_error("fire called"); });
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.slot_count(), 0u);
  sim.run();
  EXPECT_EQ(sim.executed_events(), 0u);
}

// One logged firing: series streams log their index >= 0, plain events and
// the events they spawn log negative kinds.
struct Fired {
  SimTime at;
  int stream;
  std::size_t item;
  friend bool operator==(const Fired&, const Fired&) = default;
};

struct MixRun {
  std::vector<Fired> log;
  std::uint64_t executed = 0;
  SimTime end = 0;
};

// A random schedule mix on one kernel: plain events, three series scheduled
// before the run and three more scheduled mid-run by plain events (some of
// whose times are already past, so they clamp), all on a 4 ns grid so
// `when` ties between series items and plain events are common. Series
// items and plain events schedule further events at the same or a later
// instant, and some plain events cancel others. With `as_series` false
// every series item is instead its own schedule_at call, made at the same
// moment the series would have been scheduled.
MixRun run_mix(std::uint64_t seed, bool as_series) {
  constexpr std::size_t kStreams = 6;  // 0-2 up front, 3-5 mid-run
  constexpr std::size_t kPlain = 40;
  common::Rng rng(seed);
  const auto grid_time = [&rng] {
    return static_cast<SimTime>(rng.uniform_index(50) * 4);
  };
  std::vector<std::vector<SimTime>> streams(kStreams);
  for (std::vector<SimTime>& times : streams) {
    times.resize(rng.uniform_index(40));
    for (SimTime& t : times) t = grid_time();
    std::sort(times.begin(), times.end());
  }
  std::vector<SimTime> plain_at(kPlain);
  for (SimTime& t : plain_at) t = grid_time();

  Simulator sim;
  MixRun out;
  const auto add_stream = [&](std::size_t s) {
    const std::vector<SimTime>& times = streams[s];
    const auto fire = [&sim, &out, s](std::size_t i) {
      out.log.push_back({sim.now(), static_cast<int>(s), i});
      if (i % 5 == 0) {
        sim.schedule_at(sim.now(), [&sim, &out, s, i] {
          out.log.push_back({sim.now(), -3 - static_cast<int>(s), i});
        });
      }
    };
    if (as_series) {
      sim.schedule_series(
          times.size(), [&times](std::size_t i) { return times[i]; }, fire);
    } else {
      for (std::size_t i = 0; i < times.size(); ++i) {
        sim.schedule_at(times[i], [fire, i] { fire(i); });
      }
    }
  };
  std::vector<EventId> plain_ids(kPlain);
  for (std::size_t p = 0; p < kPlain; ++p) {
    if (p == 10) add_stream(0);
    if (p == 20) {
      add_stream(1);
      add_stream(2);
    }
    plain_ids[p] = sim.schedule_at(plain_at[p], [&, p] {
      out.log.push_back({sim.now(), -1, p});
      if (p == 5) add_stream(3);
      if (p == 17) add_stream(4);
      if (p == 33) add_stream(5);
      if (p % 7 == 0 && p + 1 < kPlain) sim.cancel(plain_ids[p + 1]);
      if (p % 4 == 1) {
        sim.schedule_in(static_cast<SimTime>(p % 3) * 4, [&sim, &out, p] {
          out.log.push_back({sim.now(), -2, p});
        });
      }
    });
  }
  sim.run_until(60);
  sim.run_until(130);
  sim.run();
  out.executed = sim.executed_events();
  out.end = sim.now();
  return out;
}

TEST(SimulatorTest, SeriesExecutesExactlyLikeOneScheduleAtPerItem) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const MixRun series = run_mix(seed, true);
    const MixRun plain = run_mix(seed, false);
    ASSERT_FALSE(plain.log.empty());
    ASSERT_EQ(series.log, plain.log) << "seed " << seed;
    EXPECT_EQ(series.executed, plain.executed) << "seed " << seed;
    EXPECT_EQ(series.end, plain.end) << "seed " << seed;
  }
}

}  // namespace
}  // namespace src::sim
