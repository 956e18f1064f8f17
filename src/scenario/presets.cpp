#include "scenario/presets.hpp"

namespace src::scenario {

using common::Rate;

namespace {

/// SRC block shared by the presets: paper parameters, TPM trained on the
/// fly when a run is not handed one via BuildOptions.
SrcSpec src_on() {
  SrcSpec src;
  src.enabled = true;
  src.tpm.source = "train-default";
  return src;
}

}  // namespace

ScenarioSpec vdi_spec(bool use_src, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = use_src ? "fig9" : "fig7";
  spec.description =
      std::string("VDI-like read-intensive congestion, 1 initiator / 2 "
                  "targets, ") +
      (use_src ? "DCQCN-SRC" : "DCQCN-only");
  spec.topology.initiators = 1;
  spec.topology.targets = 2;
  spec.topology.devices_per_target = 1;
  spec.topology.link_rate = Rate::gbps(4.0);
  // Tight PFC headroom so that pause frames participate in the congestion
  // signaling alongside ECN/CNPs (the paper's Fig. 8 "pause number").
  spec.net.pfc.xoff_bytes = 96ull * 1024;
  spec.net.pfc.xon_bytes = 48ull * 1024;
  spec.max_time = 150 * common::kMillisecond;
  spec.seed = seed;
  if (use_src) spec.src = src_on();

  // VDI-like read-intensive stream (paper §IV-D): 44 KB reads at 10 us,
  // 23 KB writes at half the byte intensity; bursty MMPP arrivals. The
  // read stream oversubscribes both the SSD and the inbound link while
  // the write direction stays uncongested (see presets.hpp).
  WorkloadSpec workload;
  workload.kind = "synthetic";
  workload.synthetic = workload::fujitsu_vdi_like(10000);
  workload.synthetic.write.mean_iat_us = 48.0;
  workload.synthetic.write.count = 2000;
  workload.seed_stride = 1;
  spec.workloads.push_back(std::move(workload));
  return spec;
}

ScenarioSpec intensity_spec(Intensity level, bool use_src,
                            std::uint64_t seed) {
  ScenarioSpec spec;
  spec.topology.initiators = 1;
  spec.topology.targets = 2;
  spec.topology.devices_per_target = 1;
  spec.topology.link_rate = Rate::gbps(4.0);
  spec.max_time = 200 * common::kMillisecond;
  spec.seed = seed;
  if (use_src) spec.src = src_on();

  double read_size_kb = 22.0, read_iat_us = 53.0;
  double write_iat_us = 160.0;
  std::size_t reads = 2500, writes = 800;
  switch (level) {
    case Intensity::kLight:
      spec.name = "fig10-light";
      break;  // defaults above: below both SSD and link capacity
    case Intensity::kModerate:
      spec.name = "fig10-moderate";
      read_size_kb = 32.0;
      read_iat_us = 20.0;
      write_iat_us = 96.0;
      reads = 6000;
      writes = 1300;
      break;
    case Intensity::kHeavy:
      spec.name = "fig10-heavy";
      read_size_kb = 44.0;
      read_iat_us = 10.0;
      write_iat_us = 48.0;
      reads = 10000;
      writes = 2500;
      break;
  }
  spec.description = "Fig. 10 workload-intensity point (" + spec.name + ")";

  WorkloadSpec workload;
  workload.kind = "micro";
  workload.micro.read = workload::StreamParams{read_iat_us, read_size_kb * 1024, reads};
  workload.micro.write = workload::StreamParams{write_iat_us, 23.0 * 1024, writes};
  workload.seed_stride = 13;
  spec.workloads.push_back(std::move(workload));
  return spec;
}

ScenarioSpec incast_spec(std::size_t targets, std::size_t initiators,
                         bool use_src, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "incast-" + std::to_string(targets) + "x" +
              std::to_string(initiators);
  spec.description = "Table IV in-cast: " + std::to_string(targets) +
                     " targets / " + std::to_string(initiators) +
                     " initiators, constant total load";
  spec.topology.initiators = initiators;
  spec.topology.targets = targets;
  spec.topology.devices_per_target = 1;
  spec.topology.link_rate = Rate::gbps(4.0);
  spec.max_time = 250 * common::kMillisecond;
  spec.seed = seed;
  if (use_src) spec.src = src_on();

  // The total traffic load is held constant (paper §IV-F2); each initiator
  // carries an equal share of it, and requests are spread round-robin over
  // the targets by the experiment driver.
  const double total_read_iat_us = 32.0;   // 44 KB -> ~11 Gbps total
  const double total_write_iat_us = 70.0;  // 23 KB -> ~2.7 Gbps total
  const std::size_t total_reads = 5600;
  const std::size_t total_writes = 2560;
  WorkloadSpec workload;
  workload.kind = "micro";
  workload.micro.read = workload::StreamParams{
      total_read_iat_us * static_cast<double>(initiators), 44.0 * 1024,
      total_reads / initiators};
  workload.micro.write = workload::StreamParams{
      total_write_iat_us * static_cast<double>(initiators), 23.0 * 1024,
      total_writes / initiators};
  workload.seed_stride = 17;
  spec.workloads.push_back(std::move(workload));
  return spec;
}

ScenarioSpec coexistence_spec(const std::vector<std::string>& ccs,
                              bool use_src, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "coexist";
  std::string roster;
  for (const std::string& cc : ccs) {
    spec.name += "-" + cc;
    if (!roster.empty()) roster += " vs ";
    roster += cc;
  }
  spec.description = "mixed-CC coexistence: " + roster +
                     (use_src ? ", SRC on" : ", SRC off");
  spec.topology.initiators = ccs.size();
  spec.topology.targets = 2;
  spec.topology.devices_per_target = 1;
  spec.topology.link_rate = Rate::gbps(4.0);
  spec.max_time = 120 * common::kMillisecond;
  spec.seed = seed;
  if (use_src) spec.src = src_on();

  // One workload and one cc override per initiator: "cubic" initiators run
  // the bulk background stream (256 KB reads oversubscribing the 4 Gbps
  // link); everything else runs the Table IV storage calibration.
  for (const std::string& cc : ccs) {
    InitiatorSpec ini;
    ini.cc = cc;
    spec.initiators.push_back(std::move(ini));

    WorkloadSpec workload;
    workload.kind = "micro";
    if (cc == "cubic") {
      workload.micro.read = workload::StreamParams{300.0, 256.0 * 1024, 380};
      workload.micro.write = workload::StreamParams{2000.0, 64.0 * 1024, 50};
    } else {
      workload.micro.read = workload::StreamParams{32.0, 44.0 * 1024, 1500};
      workload.micro.write = workload::StreamParams{70.0, 23.0 * 1024, 550};
    }
    workload.seed_stride = 17;
    spec.workloads.push_back(std::move(workload));
  }
  return spec;
}

ScenarioSpec pod_incast_spec(std::size_t initiators, std::size_t targets,
                             std::size_t stripe_width, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "pod-incast-" + std::to_string(initiators) + "x" +
              std::to_string(targets) + "s" + std::to_string(stripe_width);
  spec.description = "pod-grammar in-cast: " + std::to_string(initiators) +
                     " mixed-CC initiators striping reads " +
                     std::to_string(stripe_width) + "-wide over " +
                     std::to_string(targets) +
                     " tail-pod targets, 4:1 oversubscription";
  spec.topology.kind = "pod";
  spec.topology.initiators = initiators;
  spec.topology.targets = targets;
  spec.topology.pod.pods = 2;
  spec.topology.pod.racks_per_pod = 2;
  spec.topology.pod.hosts_per_rack = 16;
  spec.topology.pod.oversubscription = 4.0;
  spec.topology.pod.stripe_width = stripe_width;
  spec.max_time = 250 * common::kMillisecond;
  spec.seed = seed;

  // Incast-degree x fairness grid: initiators cycle dcqcn / swift / cubic,
  // so the tail-pod uplinks arbitrate between loss-, delay-, and
  // window-based controllers at once. One storage-shaped workload each;
  // cubic rows carry the bulk background stream.
  const char* ccs[] = {"dcqcn", "swift", "cubic"};
  for (std::size_t i = 0; i < initiators; ++i) {
    InitiatorSpec ini;
    ini.cc = ccs[i % 3];
    spec.initiators.push_back(std::move(ini));

    WorkloadSpec workload;
    workload.kind = "micro";
    if (ini.cc == "cubic") {
      workload.micro.read = workload::StreamParams{300.0, 256.0 * 1024, 250};
      workload.micro.write = workload::StreamParams{2000.0, 64.0 * 1024, 40};
    } else {
      workload.micro.read = workload::StreamParams{32.0, 44.0 * 1024, 1200};
      workload.micro.write = workload::StreamParams{70.0, 23.0 * 1024, 400};
    }
    workload.seed_stride = 17;
    spec.workloads.push_back(std::move(workload));
  }
  return spec;
}

namespace {

/// Reduced pod-incast for the lane-determinism golden and smoke runs: a
/// 16-host grammar (7 shards under the rack partition) and ~6x fewer
/// requests, so three lane-count runs finish in seconds.
ScenarioSpec pod_incast_reduced_spec() {
  ScenarioSpec spec = pod_incast_spec(/*initiators=*/6, /*targets=*/6,
                                      /*stripe_width=*/3);
  spec.name = "pod-incast-reduced";
  spec.description =
      "reduced pod-grammar in-cast (16 hosts, 6 mixed-CC initiators, "
      "regression/smoke scale)";
  spec.topology.pod.hosts_per_rack = 4;
  spec.max_time = 120 * common::kMillisecond;
  for (WorkloadSpec& workload : spec.workloads) {
    workload.micro.read.count /= 6;
    workload.micro.write.count /= 6;
  }
  return spec;
}

/// Reduced (~10x fewer requests) variants matching tests/regression: same
/// topology and calibration, shrunk request counts and run caps so smoke
/// runs finish in seconds. The goldens pin their exact seeded outcomes.
ScenarioSpec fig7_reduced_spec(bool use_src) {
  ScenarioSpec spec = vdi_spec(use_src);
  spec.name = use_src ? "fig9-reduced" : "fig7-reduced";
  spec.description += " (reduced: 1500-request VDI stream, 80 ms cap)";
  spec.max_time = 80 * common::kMillisecond;
  WorkloadSpec& workload = spec.workloads.front();
  workload.synthetic = workload::fujitsu_vdi_like(1500);
  workload.synthetic.write.mean_iat_us = 48.0;
  workload.synthetic.write.count = 300;
  return spec;
}

ScenarioSpec table4_reduced_spec() {
  ScenarioSpec spec = incast_spec(/*targets=*/2, /*initiators=*/1,
                                  /*use_src=*/true);
  spec.name = "table4-reduced";
  spec.description =
      "Table IV 2:1 in-cast under SRC (reduced: 1200 reads, 100 ms cap)";
  spec.max_time = 100 * common::kMillisecond;
  WorkloadSpec& workload = spec.workloads.front();
  workload.micro.read = workload::StreamParams{32.0, 44.0 * 1024, 1200};
  workload.micro.write = workload::StreamParams{70.0, 23.0 * 1024, 550};
  return spec;
}

}  // namespace

Registry<ScenarioPreset>& preset_registry() {
  static Registry<ScenarioPreset> registry = [] {
    Registry<ScenarioPreset> r("scenario preset");
    r.add("fig7", {"VDI congestion, DCQCN-only (Fig. 7/8 baseline)",
                   [] { return vdi_spec(/*use_src=*/false); }});
    r.add("fig9", {"VDI congestion, DCQCN-SRC (Fig. 9)",
                   [] { return vdi_spec(/*use_src=*/true); }});
    r.add("fig10-light",
          {"light workload intensity, DCQCN-SRC (Fig. 10)", [] {
             return intensity_spec(Intensity::kLight, /*use_src=*/true);
           }});
    r.add("fig10-moderate",
          {"moderate workload intensity, DCQCN-SRC (Fig. 10)", [] {
             return intensity_spec(Intensity::kModerate, /*use_src=*/true);
           }});
    r.add("fig10-heavy",
          {"heavy workload intensity, DCQCN-SRC (Fig. 10)", [] {
             return intensity_spec(Intensity::kHeavy, /*use_src=*/true);
           }});
    r.add("table4", {"2:1 in-cast, DCQCN-SRC (Table IV)", [] {
            return incast_spec(/*targets=*/2, /*initiators=*/1, /*use_src=*/true);
          }});
    r.add("fig7-reduced", {"reduced Fig. 7 baseline (regression/smoke scale)",
                           [] { return fig7_reduced_spec(/*use_src=*/false); }});
    r.add("fig9-reduced", {"reduced Fig. 9 SRC run (regression/smoke scale)",
                           [] { return fig7_reduced_spec(/*use_src=*/true); }});
    r.add("table4-reduced", {"reduced Table IV in-cast (regression/smoke scale)",
                             [] { return table4_reduced_spec(); }});
    r.add("swift-only", {"two Swift storage initiators, SRC on", [] {
            ScenarioSpec spec = coexistence_spec({"swift", "swift"},
                                                 /*use_src=*/true);
            spec.name = "swift-only";
            return spec;
          }});
    r.add("dcqcn-vs-cubic",
          {"DCQCN storage vs Cubic bulk background, SRC on", [] {
             ScenarioSpec spec = coexistence_spec({"dcqcn", "cubic"},
                                                  /*use_src=*/true);
             spec.name = "dcqcn-vs-cubic";
             return spec;
           }});
    r.add("pod-incast",
          {"pod-grammar in-cast, 12 mixed-CC initiators striping over 12 "
           "tail-pod targets (lane engine)",
           [] {
             ScenarioSpec spec = pod_incast_spec(/*initiators=*/12,
                                                 /*targets=*/12,
                                                 /*stripe_width=*/4);
             spec.name = "pod-incast";
             return spec;
           }});
    r.add("pod-incast-reduced",
          {"reduced pod-grammar in-cast (regression/smoke scale)",
           [] { return pod_incast_reduced_spec(); }});
    r.add("swift-vs-cubic",
          {"Swift storage vs Cubic bulk background, SRC on", [] {
             ScenarioSpec spec = coexistence_spec({"swift", "cubic"},
                                                  /*use_src=*/true);
             spec.name = "swift-vs-cubic";
             return spec;
           }});
    return r;
  }();
  return registry;
}

ScenarioSpec preset_spec(const std::string& name) {
  return preset_registry().at(name).make();
}

}  // namespace src::scenario
