#include "core/standalone.hpp"

#include <memory>

#include "nvme/fifo_driver.hpp"
#include "sim/simulator.hpp"
#include "ssd/device.hpp"

namespace src::core {

common::SimTime arrival_horizon(const workload::Trace& trace) {
  return trace.empty() ? 0 : trace.back().arrival;
}

StandaloneResult run_standalone(const ssd::SsdConfig& config,
                                const workload::Trace& trace,
                                const StandaloneOptions& options) {
  sim::Simulator sim;
  ssd::SsdDevice device(sim, config, options.seed);

  std::unique_ptr<nvme::NvmeDriver> driver;
  if (options.use_ssq) {
    auto ssq = std::make_unique<nvme::SsqDriver>(sim, device);
    ssq->set_weight_ratio(options.weight_ratio);
    driver = std::move(ssq);
  } else {
    driver = std::make_unique<nvme::FifoDriver>(sim, device);
  }

  StandaloneResult result;
  driver->set_completion_handler(
      [&](const nvme::IoRequest& request, const ssd::NvmeCompletion& completion) {
        if (request.type == common::IoType::kRead) {
          result.read_timeline.record(completion.complete_time, request.bytes);
        } else {
          result.write_timeline.record(completion.complete_time, request.bytes);
        }
      });

  sim.schedule_series(
      trace.size(),
      // srclint:capture-ok(the caller's trace outlives the run loop)
      [&trace](std::size_t i) { return trace[i].arrival; },
      // srclint:capture-ok(trace, driver and sim all outlive the run loop)
      [&trace, &driver, &sim](std::size_t i) {
        const workload::TraceRecord& rec = trace[i];
        nvme::IoRequest request;
        request.type = rec.type;
        request.lba = rec.lba;
        request.bytes = rec.bytes;
        request.arrival = sim.now();
        driver->submit(request);
      });

  if (options.horizon > 0) {
    sim.run_until(options.horizon);
  } else {
    sim.run();
  }

  result.read_timeline.extend_to(sim.now());
  result.write_timeline.extend_to(sim.now());
  result.events_executed = sim.executed_events();
  result.reads_completed = driver->stats().completed_reads;
  result.writes_completed = driver->stats().completed_writes;
  result.mean_read_latency_us = driver->stats().read_latency.mean_us();
  result.mean_write_latency_us = driver->stats().write_latency.mean_us();
  result.read_rate = result.read_timeline.trimmed_mean_rate(options.trim, options.trim);
  result.write_rate = result.write_timeline.trimmed_mean_rate(options.trim, options.trim);
  return result;
}

}  // namespace src::core
