// Analysis beyond the paper: what does SRC cost in *latency*? The paper
// evaluates throughput only; an operator will also ask whether throttling
// reads at the SSD inflates read response times. This harness prints the
// end-to-end latency percentiles (measured at the initiator) for the VDI
// experiment under both modes.
#include <cstdio>
#include <iostream>

#include "common/table.hpp"
#include "core/presets.hpp"
#include "scenario/build.hpp"
#include "scenario/presets.hpp"

using namespace src;

int main() {
  std::printf("Analysis — end-to-end I/O latency under DCQCN-only vs DCQCN-SRC\n");
  std::printf("(VDI experiment; issue -> data/ack received at the initiator)\n\n");
  std::printf("training TPM...\n\n");
  const core::Tpm tpm = core::train_default_tpm(ssd::ssd_a());

  const auto only = scenario::run(scenario::vdi_spec(false));
  const auto with_src = scenario::run(scenario::vdi_spec(true), {.tpm = &tpm});

  common::TextTable table({"Mode", "class", "p50 ms", "p99 ms", "mean ms",
                           "completions"});
  auto rows = [&](const char* name, const core::ExperimentResult& r) {
    table.add_row({name, "read", common::fmt(r.read_latency.p50_us() / 1e3),
                   common::fmt(r.read_latency.p99_us() / 1e3),
                   common::fmt(r.read_latency.mean_us() / 1e3),
                   std::to_string(r.read_latency.count())});
    table.add_row({"", "write", common::fmt(r.write_latency.p50_us() / 1e3),
                   common::fmt(r.write_latency.p99_us() / 1e3),
                   common::fmt(r.write_latency.mean_us() / 1e3),
                   std::to_string(r.write_latency.count())});
  };
  rows("DCQCN-only", only);
  rows("DCQCN-SRC", with_src);
  table.print(std::cout);

  std::printf("\nReading: both modes run the same open-loop overload, so the\n"
              "read backlog (and its latency) is dominated by the arrival\n"
              "process; the decisive difference is the *write* latency —\n"
              "under DCQCN-only writes starve behind the read flood, while\n"
              "SRC serves them orders of magnitude sooner.\n");
  return 0;
}
