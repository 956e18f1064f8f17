// Analysis beyond the headline figures: the paper's second trace family
// (Tencent CBS, SIV-A) is *write-heavy* — the converse of the VDI case.
// SRC targets read-congestion-induced waste, so under a write-dominated
// workload the inbound direction rarely congests and SRC should behave as
// a near no-op (like Fig 10's light case): this harness verifies that SRC
// does not *hurt* when its premise is absent.
#include <cstdio>
#include <iostream>

#include "common/table.hpp"
#include "core/presets.hpp"
#include "scenario/build.hpp"
#include "scenario/presets.hpp"
#include "workload/mmpp.hpp"

using namespace src;

namespace {

core::ExperimentConfig cbs_experiment(bool use_src, const core::Tpm* tpm) {
  auto config = scenario::build(scenario::vdi_spec(use_src), {.tpm = tpm}).config;
  config.trace_for = [](std::size_t index) {
    // CBS-like: bursty, small requests, write-dominated byte flow; scaled
    // to keep the write stream under the outbound link as DESIGN SS5 does.
    workload::SyntheticParams params = workload::tencent_cbs_like(6000);
    params.write.mean_iat_us = 16.0;  // ~8 Gbps offered -> writes dominate
    params.write.count = 6000;
    params.read.mean_iat_us = 30.0;
    params.read.count = 3000;
    return workload::generate_synthetic(params, 77 + index);
  };
  return config;
}

}  // namespace

int main() {
  std::printf("Analysis — SRC under a write-heavy CBS-like workload\n\n");
  std::printf("training TPM...\n\n");
  const core::Tpm tpm = core::train_default_tpm(ssd::ssd_a());

  const auto only = core::run_experiment(cbs_experiment(false, nullptr));
  const auto with_src = core::run_experiment(cbs_experiment(true, &tpm));

  common::TextTable table({"Mode", "read Gbps", "write Gbps", "aggregate",
                           "signals"});
  auto row = [&](const char* name, const core::ExperimentResult& r) {
    table.add_row({name, common::fmt(r.read_rate.as_gbps()),
                   common::fmt(r.write_rate.as_gbps()),
                   common::fmt(r.aggregate_rate().as_gbps()),
                   std::to_string(r.pause_timeline.total())});
  };
  row("DCQCN-only", only);
  row("DCQCN-SRC", with_src);
  table.print(std::cout);

  const double delta = (with_src.aggregate_rate().as_bytes_per_second() -
                        only.aggregate_rate().as_bytes_per_second()) /
                       only.aggregate_rate().as_bytes_per_second() * 100.0;
  std::printf("\naggregate delta under SRC: %+.0f%%\n", delta);
  std::printf("\nExpected: no regression — and in fact a modest gain with the\n"
              "roles reversed: under a write flood the SSQ's separate read\n"
              "queue protects *reads* from queueing behind bulk writes (the\n"
              "mirror image of the VDI case), so both classes improve\n"
              "slightly while congestion signalling drops.\n");
  return 0;
}
