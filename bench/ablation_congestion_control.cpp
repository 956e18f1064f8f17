// Ablation: does SRC's benefit depend on which network congestion control
// runs underneath? The paper builds on DCQCN; its related work discusses
// DCTCP (TCP + ECN). SRC only consumes "demanded sending rate" events, so
// it should compose with any rate-based controller.
//
// The four (congestion control, mode) experiments are independent and run
// as a deterministic sweep over one trained TPM.
#include <cstdio>
#include <iostream>

#include "bench/harness.hpp"
#include "common/table.hpp"
#include "core/presets.hpp"
#include "runner/runner.hpp"
#include "scenario/build.hpp"
#include "scenario/presets.hpp"
#include "scenario/registry.hpp"

using namespace src;

int main() {
  std::printf("Ablation — SRC under DCQCN vs DCTCP (VDI experiment)\n\n");
  bench::Harness harness("ablation_congestion_control");
  std::printf("training TPM...\n\n");
  const core::Tpm tpm = core::train_default_tpm(ssd::ssd_a());

  const char* ccs[] = {"dcqcn", "dctcp"};  // cc-registry names
  // Row-major (cc, mode) grid: even tasks are the baseline, odd have SRC
  // on. The per-point override is the spec's congestion_control field.
  std::vector<core::ExperimentResult> results;
  {
    auto scope = harness.scope("cc_grid");
    runner::SweepRunner pool;
    results = pool.map(4, [&](std::size_t i) {
      const bool use_src = i % 2 == 1;
      scenario::ScenarioSpec spec = scenario::vdi_spec(use_src);
      spec.net.cc_algorithm = scenario::cc_registry().at(ccs[i / 2]);
      scenario::BuildOptions options;
      options.tpm = use_src ? &tpm : nullptr;
      return scenario::run(spec, options);
    });
    for (const auto& result : results) scope.events(result.events_executed);
    scope.items(results.size());
  }

  common::TextTable table({"Congestion control", "Mode", "read", "write",
                           "aggregate", "improvement"});
  for (std::size_t c = 0; c < 2; ++c) {
    const char* cc_name = c == 0 ? "DCQCN" : "DCTCP";
    const auto& only = results[2 * c];
    const auto& with_src = results[2 * c + 1];
    const double gain = (with_src.aggregate_rate().as_bytes_per_second() -
                         only.aggregate_rate().as_bytes_per_second()) /
                        only.aggregate_rate().as_bytes_per_second() * 100.0;
    table.add_row({cc_name, "baseline", common::fmt(only.read_rate.as_gbps()),
                   common::fmt(only.write_rate.as_gbps()),
                   common::fmt(only.aggregate_rate().as_gbps()), ""});
    table.add_row({"", "with SRC", common::fmt(with_src.read_rate.as_gbps()),
                   common::fmt(with_src.write_rate.as_gbps()),
                   common::fmt(with_src.aggregate_rate().as_gbps()),
                   common::fmt(gain, 0) + "%"});
  }
  table.print(std::cout);

  std::printf("\n(all rates in Gbps)\n");
  std::printf("\nExpected: SRC improves the aggregate under both congestion\n"
              "controls — the storage-side mechanism is agnostic to how the\n"
              "network computes the demanded sending rate.\n");
  return 0;
}
