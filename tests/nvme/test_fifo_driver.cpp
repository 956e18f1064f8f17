#include "nvme/fifo_driver.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "ssd/device.hpp"

namespace src::nvme {
namespace {

using common::IoType;

ssd::SsdConfig open_admission() {
  // QD-focused tests want the admission gate out of the way.
  ssd::SsdConfig cfg = ssd::ssd_a();
  cfg.admission_window_ops = 1e9;
  return cfg;
}

struct Harness {
  sim::Simulator sim;
  ssd::SsdDevice device{sim, open_admission(), 1};
  FifoDriver driver{sim, device};
  std::vector<IoRequest> completed;

  Harness() {
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

TEST(FifoDriverTest, CompletesSubmittedRequests) {
  Harness h;
  h.driver.submit(h.make(1, IoType::kRead, 0, 16384));
  h.driver.submit(h.make(2, IoType::kWrite, 1 << 20, 16384));
  h.sim.run();
  EXPECT_EQ(h.completed.size(), 2u);
  EXPECT_EQ(h.driver.stats().completed_reads, 1u);
  EXPECT_EQ(h.driver.stats().completed_writes, 1u);
  EXPECT_EQ(h.driver.in_flight(), 0u);
  EXPECT_EQ(h.driver.queued(), 0u);
}

TEST(FifoDriverTest, RespectsQueueDepth) {
  Harness h;
  const std::uint32_t qd = h.driver.queue_depth();
  for (std::uint64_t i = 0; i < qd + 50; ++i) {
    h.driver.submit(h.make(i, IoType::kRead, i * 16384, 16384));
  }
  // Before any completions, exactly QD commands are on the device.
  EXPECT_EQ(h.driver.in_flight(), qd);
  EXPECT_EQ(h.driver.queued(), 50u);
  h.sim.run();
  EXPECT_EQ(h.completed.size(), static_cast<std::size_t>(qd) + 50u);
}

TEST(FifoDriverTest, FetchResumesAfterCompletion) {
  Harness h;
  const std::uint32_t qd = h.driver.queue_depth();
  for (std::uint64_t i = 0; i < 2 * qd; ++i) {
    h.driver.submit(h.make(i, IoType::kRead, i * 16384, 16384));
  }
  // Run until at least one completion lands; backlog must shrink.
  while (h.completed.empty() && h.sim.step()) {}
  EXPECT_LT(h.driver.queued(), static_cast<std::size_t>(qd));
}

TEST(FifoDriverTest, LatencyStatsPopulated) {
  Harness h;
  h.driver.submit(h.make(1, IoType::kRead, 0, 16384));
  h.driver.submit(h.make(2, IoType::kWrite, 1 << 20, 16384));
  h.sim.run();
  EXPECT_GT(h.driver.stats().read_latency.mean_us(), 0.0);
  EXPECT_GT(h.driver.stats().write_latency.mean_us(), 0.0);
  EXPECT_EQ(h.driver.stats().read_latency.count(), 1u);
  EXPECT_EQ(h.driver.stats().write_latency.count(), 1u);
  EXPECT_GT(h.driver.stats().read_latency.p50_us(), 0.0);
}

TEST(FifoDriverTest, PercentilesReflectQueueing) {
  // A deep backlog must push p99 well beyond p50.
  Harness h;
  for (std::uint64_t i = 0; i < 400; ++i) {
    h.driver.submit(h.make(i, IoType::kRead, i << 20, 16384));
  }
  h.sim.run();
  const auto& lat = h.driver.stats().read_latency;
  EXPECT_EQ(lat.count(), 400u);
  EXPECT_GT(lat.p99_us(), 1.5 * lat.p50_us());
}

TEST(FifoDriverTest, InFlightTypeCounters) {
  Harness h;
  h.driver.submit(h.make(1, IoType::kRead, 0, 16384));
  h.driver.submit(h.make(2, IoType::kWrite, 1 << 20, 16384));
  EXPECT_EQ(h.driver.in_flight_reads(), 1u);
  EXPECT_EQ(h.driver.in_flight_writes(), 1u);
  h.sim.run();
  EXPECT_EQ(h.driver.in_flight_reads(), 0u);
  EXPECT_EQ(h.driver.in_flight_writes(), 0u);
}

// The gated rig: ssd_a's own admission window, and every read on one
// page, so one chip's backlog is all that holds the queue front back.
struct GatedRig {
  static constexpr std::uint32_t kBytes = 16384;
  sim::Simulator sim;
  ssd::SsdDevice device{sim, ssd::ssd_a(), 1};
  FifoDriver driver{sim, device};
  std::uint64_t completions = 0;
  std::vector<common::SimTime> dispatched;

  GatedRig() {
    driver.set_completion_handler(
        [this](const IoRequest&, const ssd::NvmeCompletion&) { ++completions; });
    driver.set_dispatch_handler(
        [this](const IoRequest&) { dispatched.push_back(sim.now()); });
  }

  void submit_reads(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      IoRequest r;
      r.id = i;
      r.type = IoType::kRead;
      r.lba = 0;
      r.bytes = kBytes;
      r.arrival = sim.now();
      driver.submit(r);
    }
  }
};

TEST(FifoDriverTest, GateStallWakesExactlyWhenTheGateReopens) {
  GatedRig rig;
  rig.submit_reads(20);
  ASSERT_LT(rig.driver.in_flight(), rig.driver.queue_depth());
  std::size_t stalls = 0;
  while (rig.driver.queued() > 0) {
    // Every queued request has the front's range, so the device's gate
    // for (0, kBytes) is the front's gate.
    const common::SimTime until =
        rig.device.admission_closed_until(0, GatedRig::kBytes);
    ASSERT_GE(until, rig.sim.now());
    ASSERT_EQ(rig.driver.next_wake(), until + 1);
    const std::size_t before = rig.dispatched.size();
    // While the gate is closed only completions run: no retry events, and
    // nothing is dispatched.
    while (rig.sim.next_event_time() <= until) {
      const std::uint64_t done = rig.completions;
      ASSERT_TRUE(rig.sim.step());
      ASSERT_EQ(rig.completions, done + 1) << "non-completion event at "
                                           << rig.sim.now();
      ASSERT_EQ(rig.dispatched.size(), before);
    }
    ASSERT_TRUE(rig.sim.step());  // the wake
    ASSERT_EQ(rig.sim.now(), until + 1);
    ASSERT_GT(rig.dispatched.size(), before);
    EXPECT_EQ(rig.dispatched[before], until + 1);
    ++stalls;
  }
  EXPECT_GE(stalls, 10u);
  rig.sim.run();
  EXPECT_EQ(rig.completions, 20u);
}

TEST(FifoDriverTest, DepthStallSchedulesNoWake) {
  Harness h;
  const std::uint32_t qd = h.driver.queue_depth();
  for (std::uint64_t i = 0; i < qd + 10; ++i) {
    h.driver.submit(h.make(i, IoType::kRead, i * 16384, 16384));
  }
  ASSERT_EQ(h.driver.in_flight(), qd);
  // A full queue depth ends with a completion, which re-runs the fetch.
  EXPECT_EQ(h.driver.next_wake(), common::kTimeInfinity);
  EXPECT_EQ(h.sim.pending_events(), static_cast<std::size_t>(qd));
  h.sim.run();
  EXPECT_EQ(h.completed.size(), static_cast<std::size_t>(qd) + 10u);
}

}  // namespace
}  // namespace src::nvme
