#include "nvme/ssq_driver.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "ssd/device.hpp"

namespace src::nvme {
namespace {

using common::IoType;

ssd::SsdConfig open_admission(ssd::SsdConfig cfg = ssd::ssd_a()) {
  // Queue/arbitration-focused tests want the admission gate out of the way.
  cfg.admission_window_ops = 1e9;
  return cfg;
}

struct Harness {
  sim::Simulator sim;
  ssd::SsdDevice device;
  SsqDriver driver;
  std::vector<IoRequest> completed;

  explicit Harness(ssd::SsdConfig cfg = open_admission(), std::uint32_t read_w = 1,
                   std::uint32_t write_w = 1)
      : device(sim, cfg, 1), driver(sim, device, read_w, write_w) {
    driver.set_completion_handler(
        [this](const IoRequest& req, const ssd::NvmeCompletion&) {
          completed.push_back(req);
        });
  }

  IoRequest make(std::uint64_t id, IoType type, std::uint64_t lba,
                 std::uint32_t bytes) {
    IoRequest r;
    r.id = id;
    r.type = type;
    r.lba = lba;
    r.bytes = bytes;
    r.arrival = sim.now();
    return r;
  }
};

TEST(SsqDriverTest, RoutesByIoType) {
  ssd::SsdConfig cfg = open_admission();
  cfg.queue_depth = 1;  // hold requests in the SQs
  Harness h(cfg);
  h.driver.submit(h.make(1, IoType::kRead, 0, 16384));
  h.driver.submit(h.make(2, IoType::kRead, 1 << 20, 16384));
  h.driver.submit(h.make(3, IoType::kWrite, 2 << 20, 16384));
  // First read went straight to the device (QD 1); the rest queue.
  EXPECT_EQ(h.driver.rsq_depth(), 1u);
  EXPECT_EQ(h.driver.wsq_depth(), 1u);
  h.sim.run();
  EXPECT_EQ(h.completed.size(), 3u);
}

TEST(SsqDriverTest, WeightRatioDefaultsAndSetters) {
  Harness h;
  EXPECT_DOUBLE_EQ(h.driver.weight_ratio(), 1.0);
  h.driver.set_weight_ratio(4);
  EXPECT_DOUBLE_EQ(h.driver.weight_ratio(), 4.0);
  EXPECT_EQ(h.driver.read_weight(), 1u);
  EXPECT_EQ(h.driver.write_weight(), 4u);
}

TEST(SsqDriverTest, WeightsClampToAtLeastOne) {
  Harness h;
  h.driver.set_weights(0, 0);
  EXPECT_EQ(h.driver.read_weight(), 1u);
  EXPECT_EQ(h.driver.write_weight(), 1u);
}

TEST(SsqDriverTest, QdPartitionFollowsWeightRatio) {
  Harness h;
  h.driver.set_weight_ratio(3);
  const std::uint32_t qd = h.driver.queue_depth();
  EXPECT_EQ(h.driver.write_qd_cap() + h.driver.read_qd_cap(), qd);
  // 3:1 ratio -> writes get ~3/4 of the QD.
  EXPECT_NEAR(static_cast<double>(h.driver.write_qd_cap()),
              0.75 * static_cast<double>(qd), 1.0);
}

TEST(SsqDriverTest, QdPartitionNeverStarvesAType) {
  Harness h;
  h.driver.set_weight_ratio(1000);
  EXPECT_GE(h.driver.read_qd_cap(), 1u);
  EXPECT_GE(h.driver.write_qd_cap(), 1u);
}

TEST(SsqDriverTest, QueueDepthOneSharesTheSlotInWrrOrder) {
  ssd::SsdConfig cfg = open_admission();
  cfg.queue_depth = 1;
  Harness h(cfg);
  EXPECT_EQ(h.driver.read_qd_cap(), 1u);
  EXPECT_EQ(h.driver.write_qd_cap(), 1u);
  h.driver.set_weight_ratio(4);
  EXPECT_EQ(h.driver.read_qd_cap(), 1u);
  EXPECT_EQ(h.driver.write_qd_cap(), 1u);
  h.driver.set_weight_ratio(1);

  std::vector<std::uint64_t> order;
  h.driver.set_dispatch_handler(
      [&](const IoRequest& request) { order.push_back(request.id); });
  h.driver.submit(h.make(1, IoType::kRead, 0, 16384));  // takes the slot
  for (std::uint64_t i = 0; i < 3; ++i) {
    h.driver.submit(h.make(2 + i, IoType::kRead, (2 + i) << 20, 16384));
    h.driver.submit(h.make(5 + i, IoType::kWrite, (5 + i) << 20, 16384));
  }
  h.sim.run();
  // Neither type is capped out of the single slot: at w = 1 the fetches
  // alternate, writes first.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 5, 2, 6, 3, 7, 4}));
  EXPECT_EQ(h.completed.size(), 7u);
}

TEST(SsqDriverTest, WrrPrefersWritesAtHighRatio) {
  // Saturate both queues, then check the fetch mix follows the weights.
  ssd::SsdConfig cfg = open_admission();
  cfg.queue_depth = 8;
  Harness h(cfg, 1, 4);
  for (std::uint64_t i = 0; i < 200; ++i) {
    h.driver.submit(h.make(2 * i, IoType::kRead, (2 * i) << 16, 16384));
    h.driver.submit(h.make(2 * i + 1, IoType::kWrite, (2 * i + 1) << 16, 16384));
  }
  h.sim.run();
  const auto& s = h.driver.ssq_stats();
  EXPECT_EQ(s.fetched_from_rsq + s.fetched_from_wsq, 400u);
  // Writes should have been fetched well ahead of reads while both queues
  // were backlogged; with equal totals both end at 200, so check tokens saw
  // resets and the QD cap skew favored writes in flight.
  EXPECT_GT(s.token_resets, 0u);
}

TEST(SsqDriverTest, BorrowingWhenOtherQueueEmpty) {
  ssd::SsdConfig cfg = open_admission();
  cfg.queue_depth = 4;
  Harness h(cfg, 1, 4);
  // Only reads: the arbiter must serve them at full QD despite the read QD
  // cap, because WSQ is empty (paper's borrow rule).
  for (std::uint64_t i = 0; i < 50; ++i) {
    h.driver.submit(h.make(i, IoType::kRead, i << 16, 16384));
  }
  EXPECT_EQ(h.driver.in_flight(), 4u);  // full QD, not just the read share
  h.sim.run();
  EXPECT_EQ(h.completed.size(), 50u);
  EXPECT_GT(h.driver.ssq_stats().borrowed_fetches, 0u);
}

TEST(SsqDriverTest, ConsistencyRedirectsOverlappingRequests) {
  ssd::SsdConfig cfg = open_admission();
  cfg.queue_depth = 1;  // keep requests queued
  Harness h(cfg);
  h.driver.submit(h.make(1, IoType::kRead, 1 << 20, 16384));   // fetched
  h.driver.submit(h.make(2, IoType::kRead, 0, 16384));         // queued in RSQ
  h.driver.submit(h.make(3, IoType::kWrite, 0, 16384));        // same LBA -> RSQ
  EXPECT_EQ(h.driver.rsq_depth(), 2u);
  EXPECT_EQ(h.driver.wsq_depth(), 0u);
  EXPECT_EQ(h.driver.ssq_stats().consistency_redirects, 1u);
  h.sim.run();
  EXPECT_EQ(h.completed.size(), 3u);
}

TEST(SsqDriverTest, ConsistencyPreservesOrderForDependentPair) {
  ssd::SsdConfig cfg = open_admission();
  cfg.queue_depth = 1;
  Harness h(cfg, 1, 8);  // heavy write priority would normally reorder
  h.driver.submit(h.make(1, IoType::kRead, 1 << 20, 16384));  // occupies device
  h.driver.submit(h.make(2, IoType::kRead, 0, 16384));
  h.driver.submit(h.make(3, IoType::kWrite, 0, 16384));  // depends on id 2
  h.sim.run();
  ASSERT_EQ(h.completed.size(), 3u);
  // The dependent write must be fetched after the read it overlaps: since
  // both went to RSQ (FIFO), completion order preserves submission order.
  std::size_t read_pos = 0, write_pos = 0;
  for (std::size_t i = 0; i < h.completed.size(); ++i) {
    if (h.completed[i].id == 2) read_pos = i;
    if (h.completed[i].id == 3) write_pos = i;
  }
  EXPECT_LT(read_pos, write_pos);
}

TEST(SsqDriverTest, WeightAdjustmentsCounted) {
  Harness h;
  const auto before = h.driver.ssq_stats().weight_adjustments;
  h.driver.set_weight_ratio(2);
  h.driver.set_weight_ratio(5);
  EXPECT_EQ(h.driver.ssq_stats().weight_adjustments, before + 2);
}

TEST(SsqDriverTest, HigherWriteWeightShiftsThroughputTowardWrites) {
  // The core property behind Fig. 5: under a backlogged mixed workload,
  // raising w increases write throughput share.
  auto run_mix = [](std::uint32_t w) {
    ssd::SsdConfig cfg = ssd::ssd_a();
    cfg.queue_depth = 16;
    cfg.write_cache_bytes = 4ull << 20;  // small cache: writes flash-bound fast
    Harness h(cfg, 1, w);
    for (std::uint64_t i = 0; i < 2000; ++i) {
      h.driver.submit(h.make(2 * i, IoType::kRead, (2 * i) << 16, 16384));
      h.driver.submit(h.make(2 * i + 1, IoType::kWrite, (2 * i + 1) << 16, 16384));
    }
    // Run a fixed horizon (not to completion) to observe the service mix.
    h.sim.run_until(50 * common::kMillisecond);
    return std::pair{h.driver.stats().completed_reads,
                     h.driver.stats().completed_writes};
  };

  const auto [r1, w1] = run_mix(1);
  const auto [r8, w8] = run_mix(8);
  const double write_share_1 = static_cast<double>(w1) / static_cast<double>(r1 + w1);
  const double write_share_8 = static_cast<double>(w8) / static_cast<double>(r8 + w8);
  EXPECT_GT(write_share_8, write_share_1);
}

// Differential check of the memoised admission gate on a saturated SSQ run
// with the real (default) admission window: after every event, each
// submission queue's front is put to a long-lived AdmissionGate and to a
// fresh device evaluation, and the answers must agree. With consistency
// checking off every request sits in its natural queue, so the test mirrors
// both queues from the submit probe and the dispatch handler. A third,
// probe request changes its LBA range at random moments (a front change
// while the memo may hold a closed answer), every check is repeated on a
// brand-new gate (the evaluation path), and whenever the gate is closed
// until U, no-op events at U and U + 1 make the run stop exactly on the
// boundary.
TEST(SsqDriverTest, CachedAdmissionGateMatchesFreshEvaluation) {
  Harness h(ssd::ssd_a(), 1, 4);
  h.driver.set_consistency_checking(false);
  std::deque<IoRequest> mirror[2];
  h.driver.set_submit_probe([&mirror](const IoRequest& r) {
    mirror[r.type == IoType::kRead ? 0 : 1].push_back(r);
  });
  h.driver.set_dispatch_handler([&mirror](const IoRequest& r) {
    std::deque<IoRequest>& queue = mirror[r.type == IoType::kRead ? 0 : 1];
    ASSERT_FALSE(queue.empty());
    EXPECT_EQ(queue.front().id, r.id);
    queue.pop_front();
  });
  common::Rng rng(7);
  const auto random_request = [&rng, &h](std::uint64_t id) {
    const IoType type = rng.bernoulli(0.5) ? IoType::kRead : IoType::kWrite;
    const std::uint64_t lba = rng.uniform_index(1u << 20) * 4096;
    const auto bytes = static_cast<std::uint32_t>(4096 * (1 + rng.uniform_index(12)));
    return h.make(id, type, lba, bytes);
  };
  for (std::uint64_t i = 0; i < 4000; ++i) {
    const IoRequest request = random_request(i);
    h.sim.schedule_at(static_cast<common::SimTime>(i) * 2 * common::kMicrosecond,
                      [&h, request] {
                        h.driver.submit(h.make(request.id, request.type,
                                               request.lba, request.bytes));
                      });
  }
  AdmissionGate gates[3];
  IoRequest probe = random_request(0);
  std::set<common::SimTime> boundaries;
  std::uint64_t calls = 0;
  std::uint64_t closed = 0;
  while (h.sim.step()) {
    const common::SimTime now = h.sim.now();
    if (rng.uniform_index(8) == 0) probe = random_request(0);
    const IoRequest* fronts[3] = {mirror[0].empty() ? nullptr : &mirror[0].front(),
                                  mirror[1].empty() ? nullptr : &mirror[1].front(),
                                  &probe};
    for (std::size_t q = 0; q < 3; ++q) {
      if (fronts[q] == nullptr) continue;
      const IoRequest& front = *fronts[q];
      const common::SimTime until =
          h.device.admission_closed_until(front.lba, front.bytes);
      const bool fresh = until < now;
      ASSERT_EQ(gates[q].open(h.device, front, now), fresh)
          << "gate " << q << " at t=" << now;
      ASSERT_EQ(AdmissionGate{}.open(h.device, front, now), fresh)
          << "new gate " << q << " at t=" << now;
      ++calls;
      if (fresh) continue;
      ++closed;
      if (boundaries.insert(until).second) {
        h.sim.schedule_at(until, [] {});
        h.sim.schedule_at(until + 1, [] {});
      }
    }
  }
  EXPECT_EQ(h.completed.size(), 4000u);
  EXPECT_GT(calls, 10'000u);
  EXPECT_GT(closed, calls / 10);  // the gate really was the bottleneck
}

// SSQ under ssd_a's own admission window, reads on one page: RSQ's front
// is held back by one chip's backlog alone.
TEST(SsqDriverTest, GateStallWakesExactlyWhenTheGateReopens) {
  Harness h(ssd::ssd_a());
  std::vector<common::SimTime> dispatched;
  h.driver.set_dispatch_handler(
      [&](const IoRequest&) { dispatched.push_back(h.sim.now()); });
  for (std::uint64_t i = 0; i < 20; ++i) {
    h.driver.submit(h.make(i, IoType::kRead, 0, 16384));
  }
  std::size_t stalls = 0;
  while (h.driver.queued() > 0) {
    const common::SimTime until = h.device.admission_closed_until(0, 16384);
    ASSERT_GE(until, h.sim.now());
    ASSERT_EQ(h.driver.next_wake(), until + 1);
    const std::size_t before = dispatched.size();
    while (h.sim.next_event_time() <= until) {
      const std::size_t done = h.completed.size();
      ASSERT_TRUE(h.sim.step());
      ASSERT_EQ(h.completed.size(), done + 1) << "non-completion event at "
                                              << h.sim.now();
      ASSERT_EQ(dispatched.size(), before);
    }
    ASSERT_TRUE(h.sim.step());  // the wake
    ASSERT_EQ(h.sim.now(), until + 1);
    ASSERT_GT(dispatched.size(), before);
    EXPECT_EQ(dispatched[before], until + 1);
    ++stalls;
  }
  EXPECT_GE(stalls, 10u);
  h.sim.run();
  EXPECT_EQ(h.completed.size(), 20u);
}

TEST(SsqDriverTest, CappedQueueAddsNoWakeInstant) {
  ssd::SsdConfig cfg = ssd::ssd_a();
  cfg.queue_depth = 16;  // caps 8 + 8 at w = 1
  Harness h(cfg);
  ASSERT_EQ(h.driver.write_qd_cap(), 8u);
  // Reads on one page until the gate holds RSQ's front back.
  std::uint64_t id = 0;
  while (h.driver.rsq_depth() == 0) {
    ASSERT_LT(id, 8u);
    h.driver.submit(h.make(id++, IoType::kRead, 0, 16384));
  }
  // Writes to ranges whose gate is open right now, up to their cap, then
  // one more that only the cap refuses.
  std::uint64_t next = 1;
  const auto open_lba = [&] {
    while (h.device.admission_closed_until(next * 16384, 16384) >= h.sim.now()) ++next;
    return next++ * 16384;
  };
  while (h.driver.in_flight_writes() < h.driver.write_qd_cap()) {
    h.driver.submit(h.make(id++, IoType::kWrite, open_lba(), 16384));
  }
  const IoRequest capped = h.make(id++, IoType::kWrite, open_lba(), 16384);
  h.driver.submit(capped);
  ASSERT_EQ(h.driver.wsq_depth(), 1u);
  ASSERT_GT(h.driver.rsq_depth(), 0u);
  ASSERT_LT(h.driver.in_flight(), h.driver.queue_depth());
  // WSQ's front is open at the gate and refused only by its cap; RSQ's
  // front is gated. Only RSQ's instant counts.
  ASSERT_LT(h.device.admission_closed_until(capped.lba, capped.bytes), h.sim.now());
  const common::SimTime until = h.device.admission_closed_until(0, 16384);
  ASSERT_GE(until, h.sim.now());
  EXPECT_EQ(h.driver.next_wake(), until + 1);
  h.sim.run();
  EXPECT_EQ(h.completed.size(), id);
}

}  // namespace
}  // namespace src::nvme
