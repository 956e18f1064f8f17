// Multi-queue NVMe SSD device model (MQSim-equivalent substrate).
//
// The device executes fetched NVMe commands against the flash backend:
//  * reads  — per-page CMT lookup (miss = extra mapping read), chip sense,
//             channel transfer; completion when the last page arrives.
//  * writes — absorbed by the DRAM write cache when space is available
//             (ack at DRAM speed) and drained to flash in the background;
//             when the cache is full, writes take the synchronous flash
//             path and the command completes at program speed.
// Reads that hit dirty cached pages are served from DRAM.
//
// The background drain shares chips and channels with reads — that contention
// is the read/write interference the paper's throughput-control mechanism
// (SSQ + WRR) manipulates.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <functional>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"
#include "ssd/cmt.hpp"
#include "ssd/command.hpp"
#include "ssd/config.hpp"
#include "ssd/flash_backend.hpp"
#include "ssd/ftl.hpp"

namespace src::ssd {

struct SsdStats {
  std::uint64_t reads_completed = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t cache_absorbed_writes = 0;  ///< writes acked from DRAM
  std::uint64_t paced_writes = 0;           ///< acks paced by the flash drain
  std::uint64_t cache_read_hits = 0;        ///< read pages served from DRAM
  std::uint64_t sync_writes = 0;            ///< writes that bypassed the cache
  std::uint64_t gc_invocations = 0;
  std::uint64_t gc_pages_moved = 0;
  std::uint64_t gc_erases = 0;
  std::uint64_t transient_failures = 0;    ///< commands failed by fault injection
  std::uint64_t offline_rejections = 0;    ///< commands rejected while offline
};

class SsdDevice {
 public:
  using CompletionFn = std::function<void(const NvmeCompletion&)>;

  SsdDevice(sim::Simulator& sim, SsdConfig cfg, std::uint64_t seed = 1);

  SsdDevice(const SsdDevice&) = delete;
  SsdDevice& operator=(const SsdDevice&) = delete;

  /// Begin executing a fetched command; `on_complete` fires exactly once at
  /// the command's completion time. The caller (the NVMe driver) is
  /// responsible for respecting the queue-depth limit.
  void execute(const NvmeCommand& cmd, CompletionFn on_complete);

  const SsdConfig& config() const { return cfg_; }

  /// Admission control: a command is admitted when every chip it touches
  /// has less backlog than the configured admission window. Drivers hold
  /// commands in their submission queues until then, so fetch arbitration
  /// (WRR) — not unbounded internal queues — decides how flash time is
  /// shared. Returns the last instant through which the gate stays closed
  /// for this command, or a time before now() when it is open now. Chip
  /// free-at times never decrease, so a closed answer holds until that
  /// instant whatever the device does meanwhile.
  common::SimTime admission_closed_until(std::uint64_t lba,
                                         std::uint32_t bytes) const;
  const SsdStats& stats() const { return stats_; }
  std::uint64_t cache_used_bytes() const { return cache_used_; }
  double cmt_hit_ratio() const { return cmt_.hit_ratio(); }
  double mean_chip_utilization() const {
    return backend_.mean_chip_utilization(sim_.now());
  }
  /// NVMe Deallocate (TRIM): drop the FTL mappings covering the range.
  /// A metadata-only operation; no flash traffic. Returns the number of
  /// logical pages that were mapped (0 when GC/FTL is disabled).
  std::uint64_t deallocate(std::uint64_t lba, std::uint32_t bytes);

  /// Failure injection: scale subsequent flash operation latencies
  /// (1.0 = healthy). Models a degrading device (retries, internal
  /// error recovery) at runtime.
  void inject_latency_scale(double scale) { backend_.set_latency_scale(scale); }
  double injected_latency_scale() const { return backend_.latency_scale(); }

  /// Failure injection: take the device offline (every subsequent command
  /// completes with NvmeStatus::kOffline after the firmware overhead) or
  /// bring it back. Commands already executing complete normally.
  void set_offline(bool offline) { offline_ = offline; }
  bool offline() const { return offline_; }

  /// Failure injection: probability that a command fails with a transient
  /// error. Draws come from the device's own seeded RNG, so a fixed seed
  /// yields an identical failure pattern; 0 (the default) draws nothing.
  void set_transient_failure_rate(double p) {
    transient_fail_rate_ = std::clamp(p, 0.0, 1.0);
  }
  double transient_failure_rate() const { return transient_fail_rate_; }

  /// Deterministic lane id for the event tracer (set by the owning target:
  /// node id and device index). Purely observational.
  void set_trace_lane(std::uint32_t lane) { trace_lane_ = lane; }
  std::uint32_t trace_lane() const { return trace_lane_; }

  /// Write amplification (1.0 when GC is disabled or idle).
  double write_amplification() const {
    return ftl_ ? ftl_->stats().write_amplification() : 1.0;
  }
  const Ftl* ftl() const { return ftl_.get(); }

 private:
  struct DirtyEntry {
    std::uint64_t first_page = 0;
    std::uint32_t page_count = 0;
    std::uint64_t bytes = 0;
  };

  void execute_read(const NvmeCommand& cmd, CompletionFn on_complete);
  void execute_write(const NvmeCommand& cmd, CompletionFn on_complete);
  void pump_drain();
  /// Placement for reading a logical page (FTL mapping, else static stripe).
  FlashBackend::Placement read_placement(std::uint64_t logical_page) const;
  /// Program one logical page: allocate via the FTL (when enabled), charge
  /// the program, and run any GC the allocation made necessary.
  common::SimTime program_page(std::uint64_t logical_page, common::SimTime ready);
  bool run_gc_once(common::SimTime ready);
  std::uint64_t first_page(std::uint64_t lba) const { return lba / cfg_.page_bytes; }
  std::uint32_t page_count(std::uint64_t lba, std::uint32_t bytes) const {
    const std::uint64_t first = lba / cfg_.page_bytes;
    const std::uint64_t last = (lba + bytes - 1) / cfg_.page_bytes;
    return static_cast<std::uint32_t>(last - first + 1);
  }

  sim::Simulator& sim_;
  SsdConfig cfg_;
  FlashBackend backend_;
  CachedMappingTable cmt_;
  common::Rng rng_;
  SsdStats stats_;

  std::uint32_t trace_lane_ = 0;

  // Fault-injection state (see src/fault): healthy devices never consult
  // the RNG, so enabling the subsystem elsewhere cannot perturb a run.
  bool offline_ = false;
  double transient_fail_rate_ = 0.0;

  // Write cache state.
  std::uint64_t cache_used_ = 0;
  std::deque<DirtyEntry> dirty_;          ///< FIFO of cache entries to drain
  /// Pages held by any cache entry, for read hits. A set: a rewrite of a
  /// cached page adds nothing, and the first entry to drain removes it.
  common::FlatMap64<bool> dirty_pages_;
  std::uint32_t drain_in_flight_ = 0;

  // Log-structured FTL (present only when cfg_.enable_gc).
  std::unique_ptr<Ftl> ftl_;
};

}  // namespace src::ssd
