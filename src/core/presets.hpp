// Calibrated experiment presets for the paper's evaluation section.
//
// The paper's testbed couples an NS3 Clos fabric (40 Gbps links) with
// MQSim flash arrays whose absolute speeds we do not know. Our simulated
// devices are calibrated to the throughput ranges the paper reports
// (reads ~5-10 Gbps, writes ~1.5-3 Gbps per target) and the link rate is
// scaled so that the *ratios* that drive the phenomena match the paper:
// read traffic oversubscribes both the SSD and the inbound link, while
// the outbound (write) direction stays uncongested. See DESIGN.md.
#pragma once

#include "core/experiment.hpp"
#include "core/tpm.hpp"
#include "workload/micro.hpp"
#include "workload/mmpp.hpp"

#include <vector>

namespace src::core {

/// TPM training grid: micro traces over a (inter-arrival, size,
/// read/write-balance) lattice, matching §IV-C's "extensive experiments
/// with various workloads and weight ratios". `iat_grid_us` may override
/// the inter-arrival lattice (empty = default for a TLC-class device).
TrainingGrid default_training_grid(std::size_t requests_per_stream = 6000,
                                   std::uint64_t seed = 11,
                                   std::vector<double> iat_grid_us = {});

/// Train a Random Forest TPM for the given SSD configuration. Fast devices
/// (read latency <= 10 us, e.g. SSD-B) saturate at shorter inter-arrival
/// times, so their training lattice shifts accordingly.
Tpm train_default_tpm(const ssd::SsdConfig& ssd, std::uint64_t seed = 11);

/// The Fig. 7/8 experiment: one initiator, two targets, VDI-like
/// read-intensive workload that congests the inbound direction.
ExperimentConfig vdi_experiment(bool use_src, const Tpm* tpm,
                                std::uint64_t seed = 99);

/// Workload intensity presets for Fig. 10 (paper §IV-F1).
enum class Intensity { kLight, kModerate, kHeavy };

ExperimentConfig intensity_experiment(Intensity level, bool use_src,
                                      const Tpm* tpm, std::uint64_t seed = 7);

/// In-cast experiment for Table IV: `targets`:`initiators` with the same
/// total traffic load spread across the initiators.
ExperimentConfig incast_experiment(std::size_t targets, std::size_t initiators,
                                   bool use_src, const Tpm* tpm,
                                   std::uint64_t seed = 5);

}  // namespace src::core
