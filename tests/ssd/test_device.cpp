#include "ssd/device.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace src::ssd {
namespace {

using common::IoType;
using common::SimTime;

SsdConfig small_config() {
  SsdConfig cfg = ssd_a();
  cfg.write_cache_bytes = 1ull << 20;  // 1 MiB so cache pressure is testable
  cfg.cache_ack_watermark = 0.5;       // absorb bursts up to 512 KiB
  cfg.cmt_bytes = 64 * 8;              // 64 entries
  cfg.capacity_bytes = 1ull << 30;
  return cfg;
}

struct Harness {
  sim::Simulator sim;
  SsdDevice device;
  std::vector<NvmeCompletion> completions;

  explicit Harness(SsdConfig cfg = small_config()) : device(sim, cfg, 1) {}

  void run(const NvmeCommand& cmd) {
    device.execute(cmd, [this](const NvmeCompletion& c) { completions.push_back(c); });
  }

  NvmeCommand cmd(std::uint64_t id, IoType type, std::uint64_t lba,
                  std::uint32_t bytes) const {
    NvmeCommand c;
    c.id = id;
    c.type = type;
    c.lba = lba;
    c.bytes = bytes;
    return c;
  }
};

TEST(SsdDeviceTest, ReadCompletesAfterFlashLatency) {
  Harness h;
  h.run(h.cmd(1, IoType::kRead, 0, 16384));
  h.sim.run();
  ASSERT_EQ(h.completions.size(), 1u);
  const auto& c = h.completions[0];
  EXPECT_EQ(c.id, 1u);
  EXPECT_EQ(c.type, IoType::kRead);
  // At least overhead + mapping read (CMT cold miss) + sense + transfer.
  EXPECT_GE(c.complete_time,
            h.device.config().command_overhead + h.device.config().read_latency);
}

TEST(SsdDeviceTest, WriteAbsorbedByCacheIsFast) {
  Harness h;
  h.run(h.cmd(1, IoType::kWrite, 0, 16384));
  // The ack should arrive at DRAM speed, far below flash program latency.
  h.sim.run_until(50 * common::kMicrosecond);
  ASSERT_EQ(h.completions.size(), 1u);
  EXPECT_TRUE(h.completions[0].served_from_cache);
  EXPECT_LT(h.completions[0].complete_time, h.device.config().write_latency);
}

TEST(SsdDeviceTest, CacheDrainsInBackground) {
  Harness h;
  h.run(h.cmd(1, IoType::kWrite, 0, 16384));
  h.sim.run();
  EXPECT_EQ(h.device.cache_used_bytes(), 0u);  // drained after quiesce
  EXPECT_EQ(h.device.stats().cache_absorbed_writes, 1u);
}

TEST(SsdDeviceTest, CachePressureFallsBackToSyncWrites) {
  Harness h;
  // Flood far beyond the 512 KiB absorption watermark in one instant.
  for (std::uint64_t i = 0; i < 200; ++i) {
    h.run(h.cmd(i, IoType::kWrite, i * 16384, 16384));
  }
  h.sim.run();
  EXPECT_EQ(h.completions.size(), 200u);
  EXPECT_GT(h.device.stats().sync_writes, 0u);
  EXPECT_GT(h.device.stats().cache_absorbed_writes, 0u);
}

TEST(SsdDeviceTest, AdmissionGateReflectsBacklog) {
  Harness h;
  EXPECT_LT(h.device.admission_closed_until(0, 16384), h.sim.now());  // open
  // Pile synchronous work on every chip until the window is exceeded.
  for (std::uint64_t i = 0; i < 400; ++i) {
    h.run(h.cmd(i, IoType::kRead, i * 16384, 16384));
  }
  const SimTime until = h.device.admission_closed_until(0, 16384);
  EXPECT_GE(until, h.sim.now());  // closed
  // No new flash work arrives, so the gate stays closed through `until`
  // and opens one nanosecond later.
  h.sim.schedule_at(until, [&h, until] {
    EXPECT_EQ(h.device.admission_closed_until(0, 16384), until);
  });
  h.sim.schedule_at(until + 1, [&h, until] {
    EXPECT_LT(h.device.admission_closed_until(0, 16384), until + 1);
  });
  h.sim.run();
  EXPECT_LT(h.device.admission_closed_until(0, 16384), h.sim.now());
}

TEST(SsdDeviceTest, ReadHitsDirtyCachePage) {
  Harness h;
  h.run(h.cmd(1, IoType::kWrite, 0, 16384));
  // Immediately read the same page while it is still dirty in DRAM.
  h.run(h.cmd(2, IoType::kRead, 0, 16384));
  h.sim.run_until(20 * common::kMicrosecond);
  ASSERT_EQ(h.completions.size(), 2u);
  EXPECT_GT(h.device.stats().cache_read_hits, 0u);
}

TEST(SsdDeviceTest, MultiPageCommandSpansPages) {
  Harness h;
  h.run(h.cmd(1, IoType::kRead, 0, 64 * 1024));  // 4 pages of 16 KiB
  h.sim.run();
  ASSERT_EQ(h.completions.size(), 1u);
  EXPECT_EQ(h.device.stats().read_bytes, 64u * 1024);
}

TEST(SsdDeviceTest, UnalignedRequestTouchesExtraPage) {
  Harness h;
  // 16 KiB starting 1 KiB into a page covers 2 pages.
  h.run(h.cmd(1, IoType::kRead, 1024, 16384));
  h.sim.run();
  ASSERT_EQ(h.completions.size(), 1u);
}

TEST(SsdDeviceTest, ParallelReadsFasterThanSerial) {
  // Reads spread over distinct channels complete sooner than the same
  // number of reads hammering one chip.
  Harness parallel;
  for (std::uint64_t i = 0; i < 4; ++i) {
    // Page stride 1 -> rotate across channels.
    parallel.run(parallel.cmd(i, IoType::kRead, i * 16384, 16384));
  }
  parallel.sim.run();
  SimTime parallel_finish = 0;
  for (const auto& c : parallel.completions) {
    parallel_finish = std::max(parallel_finish, c.complete_time);
  }

  Harness serial;
  const std::uint32_t stride = serial.device.config().channels *
                               serial.device.config().chips_per_channel;
  for (std::uint64_t i = 0; i < 4; ++i) {
    serial.run(serial.cmd(i, IoType::kRead, i * stride * 16384, 16384));
  }
  serial.sim.run();
  SimTime serial_finish = 0;
  for (const auto& c : serial.completions) {
    serial_finish = std::max(serial_finish, c.complete_time);
  }

  EXPECT_LT(parallel_finish, serial_finish);
}

TEST(SsdDeviceTest, CmtMissAddsLatency) {
  SsdConfig big_cmt = small_config();
  big_cmt.cmt_bytes = 1ull << 20;  // effectively no misses after warmup

  // Warm: first access misses, second hits.
  Harness h(big_cmt);
  h.run(h.cmd(1, IoType::kRead, 0, 16384));
  h.sim.run();
  const SimTime cold = h.completions[0].complete_time;
  h.run(h.cmd(2, IoType::kRead, 0, 16384));
  h.sim.run();
  const SimTime warm = h.completions[1].complete_time - cold;
  EXPECT_LT(warm, cold);  // warm read skips the mapping read
}

TEST(SsdDeviceTest, StatsAccumulate) {
  Harness h;
  h.run(h.cmd(1, IoType::kRead, 0, 16384));
  h.run(h.cmd(2, IoType::kWrite, 1 << 20, 32768));
  h.sim.run();
  EXPECT_EQ(h.device.stats().reads_completed, 1u);
  EXPECT_EQ(h.device.stats().writes_completed, 1u);
  EXPECT_EQ(h.device.stats().read_bytes, 16384u);
  EXPECT_EQ(h.device.stats().write_bytes, 32768u);
  EXPECT_GT(h.device.mean_chip_utilization(), 0.0);
}

TEST(SsdDeviceTest, GcTriggersUnderSustainedOverwrites) {
  SsdConfig cfg = small_config();
  cfg.enable_gc = true;
  cfg.capacity_bytes = 2048ull * 16384;  // 2048 logical pages
  cfg.gc_pages_per_block = 16;
  cfg.gc_overprovision = 0.10;
  cfg.write_cache_bytes = 0;  // force sync writes so pages program immediately
  Harness h(cfg);
  // Write the whole logical space twice: the second pass invalidates the
  // first and must force erases.
  std::uint64_t id = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t p = 0; p < 2048; ++p) {
      h.run(h.cmd(id++, IoType::kWrite, p * 16384, 16384));
    }
  }
  h.sim.run();
  EXPECT_GT(h.device.stats().gc_invocations, 0u);
  EXPECT_GT(h.device.stats().gc_erases, 0u);
  EXPECT_GE(h.device.write_amplification(), 1.0);
}

TEST(SsdDeviceTest, GcReadsFollowRelocatedPages) {
  SsdConfig cfg = small_config();
  cfg.enable_gc = true;
  cfg.capacity_bytes = 1024ull * 16384;
  cfg.gc_pages_per_block = 16;
  cfg.write_cache_bytes = 0;
  Harness h(cfg);
  std::uint64_t id = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t p = 0; p < 1024; ++p) {
      h.run(h.cmd(id++, IoType::kWrite, p * 16384, 16384));
    }
  }
  h.sim.run();
  // Every page is mapped; reads must still complete through the FTL path.
  const auto before = h.completions.size();
  for (std::uint64_t p = 0; p < 64; ++p) {
    h.run(h.cmd(id++, IoType::kRead, p * 16384, 16384));
  }
  h.sim.run();
  EXPECT_EQ(h.completions.size(), before + 64);
}

TEST(SsdDeviceTest, WriteAmplificationGrowsWithLessOverprovision) {
  auto wa = [](double op) {
    SsdConfig cfg = small_config();
    cfg.enable_gc = true;
    cfg.capacity_bytes = 2048ull * 16384;
    cfg.gc_pages_per_block = 16;
    cfg.gc_overprovision = op;
    cfg.write_cache_bytes = 0;
    Harness h(cfg);
    common::Rng rng(3);
    for (std::uint64_t i = 0; i < 8000; ++i) {
      h.run(h.cmd(i, IoType::kWrite, rng.uniform_index(2048) * 16384, 16384));
    }
    h.sim.run();
    return h.device.write_amplification();
  };
  EXPECT_GT(wa(0.15), wa(0.40));
}

TEST(SsdDeviceTest, CompletionTimesAreMonotonicWithSubmission) {
  // Not strictly monotonic in general, but a single-page read stream on one
  // chip must complete in order.
  Harness h;
  const std::uint32_t stride = h.device.config().channels *
                               h.device.config().chips_per_channel * 16384;
  for (std::uint64_t i = 0; i < 8; ++i) {
    h.run(h.cmd(i, IoType::kRead, i * stride, 16384));  // all on chip 0
  }
  h.sim.run();
  ASSERT_EQ(h.completions.size(), 8u);
  for (std::size_t i = 1; i < h.completions.size(); ++i) {
    EXPECT_GE(h.completions[i].complete_time, h.completions[i - 1].complete_time);
  }
}

}  // namespace
}  // namespace src::ssd
