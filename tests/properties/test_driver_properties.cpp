// Property sweep across EVERY driver/scheduler stack in the repo: for any
// queueing policy, submission conservation, causality and determinism must
// hold on the same mixed workload.
#include <gtest/gtest.h>

#include <memory>

#include "nvme/blk_scheduler.hpp"
#include "nvme/fifo_driver.hpp"
#include "nvme/polling_driver.hpp"
#include "nvme/ssq_driver.hpp"
#include "ssd/device.hpp"
#include "workload/micro.hpp"

namespace src::nvme {
namespace {

using common::IoType;
using common::SimTime;

// gtest lists each case with its parameter's bytes, so the values are
// pinned: renumbering would rename the listed cases.
enum class Stack {
  kFifo = 0,
  kSsqW1 = 1,
  kSsqW4 = 2,
  kBlkOverFifo = 4,
  kPolledFifo = 5,
};

std::string stack_name(const ::testing::TestParamInfo<Stack>& info) {
  switch (info.param) {
    case Stack::kFifo: return "Fifo";
    case Stack::kSsqW1: return "SsqW1";
    case Stack::kSsqW4: return "SsqW4";
    case Stack::kBlkOverFifo: return "BlkOverFifo";
    case Stack::kPolledFifo: return "PolledFifo";
  }
  return "?";
}

struct RunResult {
  std::uint64_t completed = 0;
  std::uint64_t completed_bytes = 0;
  bool causal = true;
  SimTime finish = 0;
};

RunResult run_stack(Stack stack) {
  sim::Simulator sim;
  ssd::SsdDevice device(sim, ssd::ssd_a(), 1);
  FifoDriver fifo(sim, device);
  std::unique_ptr<SsqDriver> ssq;
  std::unique_ptr<BlkSsqScheduler> blk;
  std::unique_ptr<UserspacePollingDriver> polled;

  RunResult result;
  auto record = [&](SimTime submit, SimTime complete, std::uint32_t bytes) {
    ++result.completed;
    result.completed_bytes += bytes;
    if (complete < submit) result.causal = false;
  };

  std::function<void(const IoRequest&)> submit;
  switch (stack) {
    case Stack::kFifo:
      fifo.set_completion_handler(
          [&](const IoRequest& r, const ssd::NvmeCompletion& c) {
            record(r.arrival, c.complete_time, r.bytes);
          });
      submit = [&](const IoRequest& r) { fifo.submit(r); };
      break;
    case Stack::kSsqW1:
    case Stack::kSsqW4:
      ssq = std::make_unique<SsqDriver>(sim, device, 1,
                                        stack == Stack::kSsqW4 ? 4 : 1);
      ssq->set_completion_handler(
          [&](const IoRequest& r, const ssd::NvmeCompletion& c) {
            record(r.arrival, c.complete_time, r.bytes);
          });
      submit = [&](const IoRequest& r) { ssq->submit(r); };
      break;
    case Stack::kBlkOverFifo:
      blk = std::make_unique<BlkSsqScheduler>(sim, fifo);
      blk->set_completion_handler([&](const IoRequest& r) {
        record(r.arrival, sim.now(), r.bytes);
      });
      submit = [&](const IoRequest& r) { blk->submit(r); };
      break;
    case Stack::kPolledFifo:
      polled = std::make_unique<UserspacePollingDriver>(sim, fifo);
      polled->set_completion_handler(
          [&](const IoRequest& r, const ssd::NvmeCompletion& c) {
            record(r.arrival, c.complete_time, r.bytes);
          });
      submit = [&](const IoRequest& r) { polled->submit(r); };
      break;
  }

  const auto trace = workload::generate_micro(
      workload::symmetric_micro(18.0, 24.0 * 1024, 800), 44);
  for (const auto& rec : trace) {
    sim.schedule_at(rec.arrival, [&submit, rec, &sim] {
      IoRequest request;
      request.id = static_cast<std::uint64_t>(rec.lba) ^ rec.bytes;
      request.type = rec.type;
      request.lba = rec.lba;
      request.bytes = rec.bytes;
      request.arrival = sim.now();
      submit(request);
    });
  }
  sim.run();
  result.finish = sim.now();
  return result;
}

class DriverStackPropertyTest : public ::testing::TestWithParam<Stack> {};

TEST_P(DriverStackPropertyTest, EveryRequestCompletesOnce) {
  const RunResult result = run_stack(GetParam());
  EXPECT_EQ(result.completed, 1600u);
}

TEST_P(DriverStackPropertyTest, CompletionsNeverPrecedeSubmission) {
  EXPECT_TRUE(run_stack(GetParam()).causal);
}

TEST_P(DriverStackPropertyTest, ByteConservation) {
  // The same trace is used by every stack: byte totals must agree with the
  // FIFO reference exactly (merging/polling must not lose or invent bytes).
  const RunResult reference = run_stack(Stack::kFifo);
  const RunResult result = run_stack(GetParam());
  EXPECT_EQ(result.completed_bytes, reference.completed_bytes);
}

TEST_P(DriverStackPropertyTest, Deterministic) {
  const RunResult a = run_stack(GetParam());
  const RunResult b = run_stack(GetParam());
  EXPECT_EQ(a.finish, b.finish);
  EXPECT_EQ(a.completed_bytes, b.completed_bytes);
}

INSTANTIATE_TEST_SUITE_P(AllStacks, DriverStackPropertyTest,
                         ::testing::Values(Stack::kFifo, Stack::kSsqW1,
                                           Stack::kSsqW4, Stack::kBlkOverFifo,
                                           Stack::kPolledFifo),
                         stack_name);

}  // namespace
}  // namespace src::nvme
