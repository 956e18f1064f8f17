#include "ssd/device.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace src::ssd {

using common::IoType;
using common::SimTime;

SsdDevice::SsdDevice(sim::Simulator& sim, SsdConfig cfg, std::uint64_t seed)
    : sim_(sim), cfg_(std::move(cfg)), backend_(cfg_), cmt_(cfg_.cmt_entries()),
      rng_(seed) {
  if (cfg_.enable_gc) {
    FtlConfig ftl_config;
    ftl_config.logical_pages = cfg_.total_pages();
    ftl_config.pages_per_block = cfg_.gc_pages_per_block;
    ftl_config.chips = cfg_.parallel_units();
    ftl_config.overprovision = cfg_.gc_overprovision;
    ftl_ = std::make_unique<Ftl>(ftl_config);
  }
}

FlashBackend::Placement SsdDevice::read_placement(std::uint64_t logical_page) const {
  if (ftl_) {
    if (const auto mapped = ftl_->translate(logical_page)) {
      return backend_.unit_placement(mapped->chip);
    }
  }
  return backend_.place(logical_page);
}

common::SimTime SsdDevice::program_page(std::uint64_t logical_page,
                                        SimTime ready) {
  FlashBackend::Placement placement;
  if (ftl_) {
    // Reclaim *before* allocating: the host write must never consume the
    // free block a pending relocation needs (the classic FTL deadlock).
    // Bounded: each round erases one block, so this terminates once enough
    // invalid space has been recycled.
    int guard = 1024;
    while (ftl_->gc_needed() && guard-- > 0) {
      if (!run_gc_once(ready)) break;
    }
    placement = backend_.unit_placement(ftl_->write(logical_page).chip);
  } else {
    placement = backend_.place(logical_page);
  }
  SimTime page_ready = ready;
  if (!cmt_.access(logical_page)) {
    page_ready = backend_.schedule_mapping_read(placement, page_ready);
  }
  return backend_.schedule_program_page(placement, page_ready);
}

bool SsdDevice::run_gc_once(SimTime ready) {
  const auto plan = ftl_->plan_gc();
  if (!plan) return false;
  ++stats_.gc_invocations;
  SRC_OBS_COUNT("ssd.gc.invocations");
  SRC_OBS_COUNT_ADD("ssd.gc.pages_moved", plan->valid_logical_pages.size());
  SRC_OBS_INSTANT("ssd", "gc", sim_.now(), trace_lane_,
                  static_cast<double>(plan->valid_logical_pages.size()));
  for (const std::uint64_t logical : plan->valid_logical_pages) {
    const auto old_physical = ftl_->translate(logical);
    const auto src_placement = old_physical
                                   ? backend_.unit_placement(old_physical->chip)
                                   : backend_.place(logical);
    const SimTime read_done = backend_.schedule_read_page(src_placement, ready);
    const auto new_physical = ftl_->rewrite_for_gc(logical, plan->chip);
    backend_.schedule_program_page(backend_.unit_placement(new_physical.chip),
                                   read_done);
    ++stats_.gc_pages_moved;
  }
  backend_.schedule_erase(backend_.unit_placement(plan->chip), ready,
                          cfg_.erase_latency);
  ftl_->finish_gc(*plan);
  ++stats_.gc_erases;
  SRC_OBS_COUNT("ssd.gc.erases");
  return true;
}

SimTime SsdDevice::admission_closed_until(std::uint64_t lba,
                                          std::uint32_t bytes) const {
  const std::uint64_t base = first_page(lba);
  const std::uint32_t pages = page_count(lba, bytes);
  const SimTime window = cfg_.admission_window();
  const SimTime now = sim_.now();
  SimTime until = now - 1;  // open
  for (std::uint32_t i = 0; i < pages; ++i) {
    const SimTime backlog = backend_.chip_backlog(backend_.place(base + i), now);
    if (backlog < window) continue;
    // Blocked until the backlog shrinks below the window: at free_at -
    // window. A window of zero or less blocks for good.
    until = std::max(until, window > 0 ? now + backlog - window
                                       : common::kTimeInfinity);
  }
  return until;
}

void SsdDevice::execute(const NvmeCommand& cmd, CompletionFn on_complete) {
  if (offline_) {
    // Fail fast: the controller rejects the command after the firmware
    // overhead without touching flash.
    ++stats_.offline_rejections;
    const SimTime finish = sim_.now() + cfg_.command_overhead;
    const NvmeCompletion completion{cmd.id, cmd.type, cmd.bytes, finish, false,
                                    NvmeStatus::kOffline};
    sim_.schedule_at(finish, [on_complete = std::move(on_complete), completion] {
      on_complete(completion);
    });
    return;
  }
  if (transient_fail_rate_ > 0.0 && rng_.bernoulli(transient_fail_rate_)) {
    // Transient media error: surfaces after an internal retry, modelled as
    // one flash read worth of recovery time.
    ++stats_.transient_failures;
    const SimTime finish = sim_.now() + cfg_.command_overhead + cfg_.read_latency;
    const NvmeCompletion completion{cmd.id, cmd.type, cmd.bytes, finish, false,
                                    NvmeStatus::kTransientError};
    sim_.schedule_at(finish, [on_complete = std::move(on_complete), completion] {
      on_complete(completion);
    });
    return;
  }
  if (cmd.type == IoType::kRead) {
    execute_read(cmd, std::move(on_complete));
  } else {
    execute_write(cmd, std::move(on_complete));
  }
}

void SsdDevice::execute_read(const NvmeCommand& cmd, CompletionFn on_complete) {
  const SimTime ready = sim_.now() + cfg_.command_overhead;
  const std::uint64_t base = first_page(cmd.lba);
  const std::uint32_t pages = page_count(cmd.lba, cmd.bytes);

  SimTime finish = ready;
  bool all_cached = true;
  for (std::uint32_t i = 0; i < pages; ++i) {
    const std::uint64_t page = base + i;
    if (dirty_pages_.find(page) != nullptr) {
      // Served from the DRAM write cache.
      ++stats_.cache_read_hits;
      finish = std::max(finish, ready + cfg_.dram_bandwidth.transmission_time(cfg_.page_bytes));
      continue;
    }
    all_cached = false;
    const auto placement = read_placement(page);
    SimTime page_ready = ready;
    if (!cmt_.access(page)) {
      page_ready = backend_.schedule_mapping_read(placement, page_ready);
    }
    finish = std::max(finish, backend_.schedule_read_page(placement, page_ready));
  }

  const NvmeCompletion completion{cmd.id, IoType::kRead, cmd.bytes, finish, all_cached};
  ++stats_.reads_completed;
  stats_.read_bytes += cmd.bytes;
  sim_.schedule_at(finish, [on_complete = std::move(on_complete), completion] {
    on_complete(completion);
  });
}

void SsdDevice::execute_write(const NvmeCommand& cmd, CompletionFn on_complete) {
  const SimTime ready = sim_.now() + cfg_.command_overhead;
  const std::uint64_t base = first_page(cmd.lba);
  const std::uint32_t pages = page_count(cmd.lba, cmd.bytes);
  const std::uint64_t footprint = static_cast<std::uint64_t>(pages) * cfg_.page_bytes;

  ++stats_.writes_completed;
  stats_.write_bytes += cmd.bytes;

  const bool under_watermark =
      cache_used_ + footprint <= cfg_.cache_watermark_bytes();

  if (under_watermark) {
    // Burst absorption: land in DRAM, acknowledge at DRAM speed, and drain
    // to flash in the background.
    cache_used_ += footprint;
    for (std::uint32_t i = 0; i < pages; ++i) dirty_pages_[base + i] = true;

    ++stats_.cache_absorbed_writes;
    SRC_OBS_COUNT("ssd.cache_absorbed_writes");
    SRC_OBS_TRACE_COUNTER("ssd", "cache_used_bytes", sim_.now(), trace_lane_,
                          static_cast<double>(cache_used_));
    const SimTime finish = ready + cfg_.dram_bandwidth.transmission_time(cmd.bytes);
    const NvmeCompletion completion{cmd.id, IoType::kWrite, cmd.bytes, finish, true};
    sim_.schedule_at(finish, [on_complete = std::move(on_complete), completion] {
      on_complete(completion);
    });
    dirty_.push_back(DirtyEntry{base, pages, footprint});
    pump_drain();
    return;
  }

  // Cache under pressure (write-through): the command's pages go to flash
  // now and the ack waits for the program — so the number of write commands
  // in flight (which the SSQ weight ratio controls) directly sets the flash
  // time share writes receive. This is the regime the paper's throughput
  // control operates in.
  ++stats_.sync_writes;
  SRC_OBS_COUNT("ssd.sync_writes");
  SimTime finish = ready;
  for (std::uint32_t i = 0; i < pages; ++i) {
    finish = std::max(finish, program_page(base + i, ready));
  }

  const NvmeCompletion completion{cmd.id, IoType::kWrite, cmd.bytes, finish, false};
  sim_.schedule_at(finish, [on_complete = std::move(on_complete), completion] {
    on_complete(completion);
  });
}

std::uint64_t SsdDevice::deallocate(std::uint64_t lba, std::uint32_t bytes) {
  if (!ftl_) return 0;
  const std::uint64_t base = first_page(lba);
  const std::uint32_t pages = page_count(lba, bytes);
  std::uint64_t trimmed = 0;
  for (std::uint32_t i = 0; i < pages; ++i) {
    trimmed += ftl_->trim(base + i);
    dirty_pages_.erase(base + i);
  }
  return trimmed;
}

void SsdDevice::pump_drain() {
  while (drain_in_flight_ < cfg_.effective_drain_streams() && !dirty_.empty()) {
    ++drain_in_flight_;
    const DirtyEntry entry = dirty_.front();
    dirty_.pop_front();

    SimTime finish = sim_.now();
    for (std::uint32_t i = 0; i < entry.page_count; ++i) {
      finish = std::max(finish, program_page(entry.first_page + i, sim_.now()));
    }

    // srclint:capture-ok(the device lives as long as its simulator)
    sim_.schedule_at(finish, [this, entry] {
      cache_used_ -= entry.bytes;
      for (std::uint32_t i = 0; i < entry.page_count; ++i) {
        dirty_pages_.erase(entry.first_page + i);
      }
      --drain_in_flight_;
      pump_drain();
    });
  }
}


}  // namespace src::ssd
