// Hot-path cost of the NVMe driver layer: submit -> WRR fetch -> device
// dispatch under a saturated mixed workload (FIFO vs SSQ across weights),
// weight adjustment, and whole standalone SSD + SSQ cells from the TPM
// training grid — the storage replay path `tpm_train` and every
// `train-default` build run 480 times. Results land in
// BENCH_micro_wrr_arbiter.json via the shared harness.
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/harness.hpp"
#include "core/presets.hpp"
#include "core/standalone.hpp"
#include "nvme/fifo_driver.hpp"
#include "nvme/ssq_driver.hpp"
#include "ssd/device.hpp"

namespace {

using namespace src;

constexpr std::size_t kMixedRequests = 5'000;

// Every request is submitted at t = 0, so the driver queues hold the whole
// workload and the fetch loop, the WRR arbiter and the admission gate run
// on every completion.
std::uint64_t run_mixed(nvme::NvmeDriver& driver, sim::Simulator& sim) {
  for (std::size_t i = 0; i < kMixedRequests; ++i) {
    nvme::IoRequest request;
    request.id = i;
    request.type = i % 2 ? common::IoType::kWrite : common::IoType::kRead;
    request.lba = (i * 2654435761u) % (1u << 30);
    request.bytes = 16384;
    driver.submit(request);
  }
  sim.run();
  return sim.executed_events();
}

}  // namespace

int main() {
  src::bench::Harness harness("micro_wrr_arbiter");
  std::uint64_t sink = 0;

  harness.repeat("fifo_driver/n=5000", kMixedRequests, [] {
    sim::Simulator sim;
    ssd::SsdDevice device(sim, ssd::ssd_a(), 1);
    nvme::FifoDriver driver(sim, device);
    return run_mixed(driver, sim);
  });

  for (const std::uint32_t w : {1u, 4u, 8u}) {
    harness.repeat("ssq_driver/w=" + std::to_string(w), kMixedRequests, [w] {
      sim::Simulator sim;
      ssd::SsdDevice device(sim, ssd::ssd_a(), 1);
      nvme::SsqDriver driver(sim, device, 1, w);
      return run_mixed(driver, sim);
    });
  }

  {
    sim::Simulator sim;
    ssd::SsdDevice device(sim, ssd::ssd_a(), 1);
    nvme::SsqDriver driver(sim, device);
    harness.repeat("weight_adjustment", /*items_per_iter=*/10'000, [&] {
      for (std::uint32_t i = 0; i < 10'000; ++i) driver.set_weight_ratio(i % 8 + 1);
      sink += driver.ssq_stats().weight_adjustments;
      return 0;
    });
  }

  {
    // The first (most intense: 8 us inter-arrival, 12 KB, symmetric mix)
    // trace of the default SSD-A training grid, replayed as
    // collect_training_data does: up to the last arrival, seed = grid seed.
    const core::TrainingGrid grid = core::default_training_grid();
    const workload::Trace& trace = grid.traces.front();
    for (const std::uint32_t w : {1u, 4u, 16u}) {
      core::StandaloneOptions options;
      options.weight_ratio = w;
      options.seed = grid.seed;
      options.horizon = core::arrival_horizon(trace);
      harness.repeat("standalone_cell/w=" + std::to_string(w), trace.size(), [&] {
        const core::StandaloneResult result =
            core::run_standalone(ssd::ssd_a(), trace, options);
        sink += result.reads_completed;
        return result.events_executed;
      });
    }
  }

  if (sink == 0) std::printf("%llu\n", static_cast<unsigned long long>(sink));
  return 0;
}
