// The paper's evaluation presets as ScenarioSpecs, plus a registry keyed by
// figure name so front ends (`srcctl scenarios`, benches, tests) enumerate
// and dump them uniformly. The spec builders are the single source of truth
// for the presets' calibration; code that wants a runnable config calls
// scenario::build(vdi_spec(...), options).config.
//
// The paper's testbed couples an NS3 Clos fabric (40 Gbps links) with
// MQSim flash arrays whose absolute speeds we do not know. Our simulated
// devices are calibrated to the throughput ranges the paper reports
// (reads ~5-10 Gbps, writes ~1.5-3 Gbps per target) and the link rate is
// scaled so that the *ratios* that drive the phenomena match the paper:
// read traffic oversubscribes both the SSD and the inbound link, while
// the outbound (write) direction stays uncongested. See DESIGN.md.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/spec.hpp"

namespace src::scenario {

/// Fig. 7/8 (use_src=false) and Fig. 9 (use_src=true): one initiator, two
/// targets, VDI-like read-intensive congestion.
ScenarioSpec vdi_spec(bool use_src, std::uint64_t seed = 99);

/// Workload intensity levels for Fig. 10 (paper §IV-F1).
enum class Intensity { kLight, kModerate, kHeavy };

/// Fig. 10 workload-intensity points.
ScenarioSpec intensity_spec(Intensity level, bool use_src,
                            std::uint64_t seed = 7);

/// Table IV in-cast: `targets`:`initiators` with constant total load.
ScenarioSpec incast_spec(std::size_t targets, std::size_t initiators,
                         bool use_src, std::uint64_t seed = 5);

/// Mixed-CC coexistence: one initiator per cc-registry name in `ccs`, two
/// shared targets. "cubic" initiators run a bulk background stream (large
/// reads oversubscribing the link); every other cc runs the storage
/// workload (Table IV calibration). Per-initiator `cc` overrides are set
/// from `ccs`, so target-paced read data obeys each initiator's choice.
ScenarioSpec coexistence_spec(const std::vector<std::string>& ccs,
                              bool use_src, std::uint64_t seed = 23);

/// Pod-scale in-cast over the declarative pod grammar (topology kind
/// "pod", run by the sharded lane engine): `initiators` mixed-CC hosts in
/// the leading pods (cycling dcqcn/swift/cubic) read-stripe over `targets`
/// hosts in the tail pod across oversubscribed rack and spine uplinks.
ScenarioSpec pod_incast_spec(std::size_t initiators, std::size_t targets,
                             std::size_t stripe_width, std::uint64_t seed = 41);

/// One registered preset: a description line for listings plus a builder.
struct ScenarioPreset {
  std::string description;
  std::function<ScenarioSpec()> make;
};

/// Preset registry. Keys: "fig7", "fig9", "fig10-light", "fig10-moderate",
/// "fig10-heavy", "table4", the ~10x-smaller "-reduced" variants the
/// regression suite and CI smoke runs use ("fig7-reduced", "fig9-reduced",
/// "table4-reduced"), the mixed-CC coexistence family ("swift-only",
/// "dcqcn-vs-cubic", "swift-vs-cubic"), and the pod-grammar lane-engine
/// pair ("pod-incast", "pod-incast-reduced").
Registry<ScenarioPreset>& preset_registry();

/// Convenience: preset_registry().at(name).make() (throws on unknown name,
/// listing the known ones).
ScenarioSpec preset_spec(const std::string& name);

}  // namespace src::scenario
