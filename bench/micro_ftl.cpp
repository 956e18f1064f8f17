// Hot-path cost of the FTL: log-structured writes with GC kept ahead of
// the allocator, mapping lookups, and full GC cycles; the cached mapping
// table under evictions; plus the latency recorder every completion
// feeds. Results land in BENCH_micro_ftl.json via the shared harness.
#include <cstdint>
#include <cstdio>

#include "bench/harness.hpp"
#include "common/latency.hpp"
#include "common/rng.hpp"
#include "ssd/cmt.hpp"
#include "ssd/config.hpp"
#include "ssd/ftl.hpp"

namespace {

using namespace src::ssd;

constexpr std::uint64_t kLogicalPages = 1 << 16;

FtlConfig bench_config() {
  FtlConfig config;
  config.logical_pages = kLogicalPages;
  config.pages_per_block = 64;
  config.chips = 16;
  config.overprovision = 0.20;
  return config;
}

/// One plan -> relocate -> erase round; false when GC has no victim.
bool gc_cycle(Ftl& ftl) {
  const auto plan = ftl.plan_gc();
  if (!plan) return false;
  for (const auto logical : plan->valid_logical_pages) {
    ftl.rewrite_for_gc(logical, plan->chip);
  }
  ftl.finish_gc(*plan);
  return true;
}

/// Keep GC ahead of the allocator, as the device model does.
void collect(Ftl& ftl) {
  while (ftl.gc_needed() && gc_cycle(ftl)) {}
}

}  // namespace

int main() {
  src::bench::Harness harness("micro_ftl");
  std::uint64_t sink = 0;

  {
    Ftl ftl(bench_config());
    src::common::Rng rng(1);
    harness.repeat("ftl_write", /*items_per_iter=*/100'000, [&] {
      for (int i = 0; i < 100'000; ++i) {
        collect(ftl);
        sink += ftl.write(rng.uniform_index(kLogicalPages)).chip;
      }
      return 0;
    });
  }

  {
    Ftl ftl(bench_config());
    src::common::Rng rng(2);
    for (std::uint64_t i = 0; i < kLogicalPages; ++i) ftl.write(i);
    harness.repeat("ftl_translate", /*items_per_iter=*/1'000'000, [&] {
      for (int i = 0; i < 1'000'000; ++i) {
        if (const auto mapped = ftl.translate(rng.uniform_index(kLogicalPages))) {
          sink += mapped->chip;
        }
      }
      return 0;
    });
  }

  {
    // Steady state first, then time whole cycles: push writes until GC is
    // needed, then run one plan -> relocate -> erase round.
    Ftl ftl(bench_config());
    src::common::Rng rng(3);
    for (int i = 0; i < (1 << 17); ++i) {
      collect(ftl);
      ftl.write(rng.uniform_index(kLogicalPages));
    }
    harness.repeat("ftl_gc_cycle", /*items_per_iter=*/100, [&] {
      for (int i = 0; i < 100; ++i) {
        while (!ftl.gc_needed()) ftl.write(rng.uniform_index(kLogicalPages));
        gc_cycle(ftl);
      }
      sink += ftl.stats().erases;
      return 0;
    });
  }

  {
    // SSD-A's CMT, warmed to full, then random reads over 4x its capacity:
    // about three in four accesses miss and evict the LRU entry.
    CachedMappingTable cmt(ssd_a().cmt_entries());
    const std::uint64_t pages = 4 * cmt.capacity();
    src::common::Rng rng(5);
    for (std::uint64_t i = 0; i < cmt.capacity(); ++i) cmt.access(i);
    harness.repeat("cmt_evicting", /*items_per_iter=*/250'000, [&] {
      for (int i = 0; i < 250'000; ++i) sink += cmt.access(rng.uniform_index(pages));
      return 0;
    });
  }

  {
    src::common::LatencyRecorder recorder;
    src::common::Rng rng(4);
    harness.repeat("latency_recorder", /*items_per_iter=*/1'000'000, [&] {
      for (int i = 0; i < 1'000'000; ++i) {
        recorder.record(src::common::microseconds(rng.exponential(200.0)));
      }
      sink += static_cast<std::uint64_t>(recorder.p99_us());
      return 0;
    });
  }

  if (sink == 0) std::printf("%llu\n", static_cast<unsigned long long>(sink));
  return 0;
}
