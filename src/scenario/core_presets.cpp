// core::vdi_experiment & friends, implemented as thin wrappers over the
// scenario layer: each preset is a ScenarioSpec (scenario/presets.hpp)
// routed through scenario::build. The declarations stay in core/presets.hpp
// for source compatibility; the definitions live here because core cannot
// depend on scenario (it would invert the layering).
#include "core/presets.hpp"
#include "scenario/build.hpp"
#include "scenario/presets.hpp"

namespace src::core {

namespace {

/// Historical contract: the caller owns (and may omit) the TPM pointer, and
/// preset construction never trains a model — so the spec's tpm source is
/// forced to "none" and the pointer rides in via BuildOptions.
ExperimentConfig config_from(scenario::ScenarioSpec spec, const Tpm* tpm) {
  spec.src.tpm.source = "none";
  scenario::BuildOptions options;
  options.tpm = tpm;
  return scenario::build(spec, options).config;
}

}  // namespace

ExperimentConfig vdi_experiment(bool use_src, const Tpm* tpm,
                                std::uint64_t seed) {
  return config_from(scenario::vdi_spec(use_src, seed), tpm);
}

ExperimentConfig intensity_experiment(Intensity level, bool use_src,
                                      const Tpm* tpm, std::uint64_t seed) {
  return config_from(scenario::intensity_spec(level, use_src, seed), tpm);
}

ExperimentConfig incast_experiment(std::size_t targets, std::size_t initiators,
                                   bool use_src, const Tpm* tpm,
                                   std::uint64_t seed) {
  return config_from(scenario::incast_spec(targets, initiators, use_src, seed),
                     tpm);
}

}  // namespace src::core
