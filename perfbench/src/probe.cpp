#include "probe.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "perfbench.hpp"

namespace perfbench {

namespace {

using src::core::ExperimentRig;

RigStats snapshot(const ExperimentRig& rig) {
  RigStats s;
  src::net::Network& network = rig.network;
  for (src::net::NodeId id = 0; id < network.node_count(); ++id) {
    if (network.is_host(id)) {
      const src::net::Host& host = network.host(id);
      s.cnps_received += host.stats().cnps_received;
      for (std::size_t p = 0; p < host.port_count(); ++p) {
        s.max_queue_bytes = std::max(s.max_queue_bytes, host.port(p).max_queue_bytes());
        s.ecn_marks += host.port(p).ecn_marks();
      }
    } else {
      const src::net::Switch& sw = network.switch_at(id);
      s.packets_forwarded += sw.stats().packets_forwarded;
      s.pfc_pauses_sent += sw.stats().pauses_sent;
      for (std::size_t p = 0; p < sw.port_count(); ++p) {
        s.max_queue_bytes = std::max(s.max_queue_bytes, sw.port(p).max_queue_bytes());
        s.ecn_marks += sw.port(p).ecn_marks();
      }
    }
  }
  for (const src::fabric::Initiator* initiator : rig.initiators) {
    const src::fabric::InitiatorStats& st = initiator->stats();
    s.reads_issued += st.reads_issued;
    s.writes_issued += st.writes_issued;
    s.reads_completed += st.reads_completed;
    s.writes_completed += st.writes_completed;
    s.reads_failed += st.reads_failed;
    s.writes_failed += st.writes_failed;
    s.retries += st.retries;
    s.timeouts += st.timeouts;
  }
  for (src::fabric::Target* target : rig.targets) {
    s.reads_served += target->stats().reads_served;
    s.writes_served += target->stats().writes_served;
    s.congestion_signals += target->stats().congestion_signals;
    for (std::size_t d = 0; d < target->device_count(); ++d) {
      const src::nvme::DriverStats& ds = target->driver(d).stats();
      s.commands += ds.submitted_reads + ds.submitted_writes;
      s.driver_accepted_reads += ds.accepted_reads;
      s.driver_accepted_writes += ds.accepted_writes;
      s.driver_completed_reads += ds.completed_reads;
      s.driver_completed_writes += ds.completed_writes;
      if (const src::nvme::SsqDriver* ssq = target->ssq_driver(d)) {
        s.fetched_rsq += ssq->ssq_stats().fetched_from_rsq;
        s.fetched_wsq += ssq->ssq_stats().fetched_from_wsq;
        s.borrowed += ssq->ssq_stats().borrowed_fetches;
      }
      const src::ssd::SsdDevice& device = target->device(d);
      ++s.devices;
      s.cmt_hit_ratio_sum += device.cmt_hit_ratio();
      s.chip_utilization_sum += device.mean_chip_utilization();
      s.cache_absorbed_writes += device.stats().cache_absorbed_writes;
      s.device_writes += device.stats().writes_completed;
    }
  }
  for (const src::core::SrcController* controller : rig.controllers) {
    std::uint32_t w = 1;
    for (const src::core::AdjustmentRecord& a : controller->adjustments()) {
      ++s.adjustments;
      if (a.weight_ratio != w) ++s.weight_changes;
      w = a.weight_ratio;
    }
  }
  s.captured = true;
  return s;
}

/// Hook state: destroyed by run_experiment while the rig is still alive.
struct ProbeState {
  ProbeState(const ExperimentRig& r, RigStats& o) : rig(r), out(o) {}
  ~ProbeState() {
    try {
      out = snapshot(rig);
    } catch (const std::exception& err) {
      std::fprintf(stderr, "perfbench: rig snapshot failed: %s\n", err.what());
    }
  }
  ProbeState(const ProbeState&) = delete;
  ProbeState& operator=(const ProbeState&) = delete;

  ExperimentRig rig;
  RigStats& out;
  std::shared_ptr<void> inner;  // destroyed after the snapshot is taken
};

void append(std::ostringstream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a ", v);
  out << buf;
}

}  // namespace

void RigStats::add(const RigStats& o) {
  captured = captured && o.captured;
  packets_forwarded += o.packets_forwarded;
  pfc_pauses_sent += o.pfc_pauses_sent;
  ecn_marks += o.ecn_marks;
  cnps_received += o.cnps_received;
  max_queue_bytes = std::max(max_queue_bytes, o.max_queue_bytes);
  reads_issued += o.reads_issued;
  writes_issued += o.writes_issued;
  reads_completed += o.reads_completed;
  writes_completed += o.writes_completed;
  reads_failed += o.reads_failed;
  writes_failed += o.writes_failed;
  retries += o.retries;
  timeouts += o.timeouts;
  reads_served += o.reads_served;
  writes_served += o.writes_served;
  congestion_signals += o.congestion_signals;
  commands += o.commands;
  driver_accepted_reads += o.driver_accepted_reads;
  driver_accepted_writes += o.driver_accepted_writes;
  driver_completed_reads += o.driver_completed_reads;
  driver_completed_writes += o.driver_completed_writes;
  fetched_rsq += o.fetched_rsq;
  fetched_wsq += o.fetched_wsq;
  borrowed += o.borrowed;
  devices += o.devices;
  cmt_hit_ratio_sum += o.cmt_hit_ratio_sum;
  chip_utilization_sum += o.chip_utilization_sum;
  cache_absorbed_writes += o.cache_absorbed_writes;
  device_writes += o.device_writes;
  adjustments += o.adjustments;
  weight_changes += o.weight_changes;
}

void attach_probe(src::core::ExperimentConfig& config, RigStats& out) {
  auto inner = std::move(config.rig_hook);
  config.rig_hook = [inner, &out](const ExperimentRig& rig) -> std::shared_ptr<void> {
    auto state = std::make_shared<ProbeState>(rig, out);
    if (inner) state->inner = inner(rig);
    return state;
  };
}

std::uint64_t result_digest(const src::core::ExperimentResult& r) {
  std::ostringstream out;
  out << r.completed << ' ' << r.end_time << ' ' << r.events_executed << ' '
      << r.total_pauses << ' ' << r.total_cnps << ' ' << r.reads_completed << ' '
      << r.writes_completed << ' ' << r.reads_failed << ' ' << r.writes_failed
      << ' ' << r.retries << ' ' << r.timeouts << ' ' << r.error_completions
      << ' ' << r.errors_returned << ' ' << r.rerouted_requests << ' '
      << r.signals_suppressed << ' ' << r.controller_stats.invalid_demand_events
      << ' ' << r.controller_stats.rejected_predictions << ' '
      << r.controller_stats.watchdog_decays << '\n';
  append(out, r.read_rate.as_bytes_per_second());
  append(out, r.write_rate.as_bytes_per_second());
  for (const src::common::Rate rate : r.per_initiator_read_rate) {
    append(out, rate.as_bytes_per_second());
  }
  for (const src::common::LatencyRecorder* lat : {&r.read_latency, &r.write_latency}) {
    out << lat->count() << ' ';
    append(out, lat->mean_us());
    append(out, lat->max_us());
    append(out, lat->p50_us());
    append(out, lat->p99_us());
  }
  out << '\n';
  for (const auto* timeline : {&r.read_timeline, &r.write_timeline}) {
    for (std::size_t i = 0; i < timeline->bin_count(); ++i) {
      out << timeline->bin_bytes(i) << ' ';
    }
    out << '\n';
  }
  for (std::size_t i = 0; i < r.pause_timeline.bin_count(); ++i) {
    out << r.pause_timeline.bin(i) << ' ';
  }
  out << '\n';
  for (const src::core::AdjustmentRecord& a : r.adjustments) {
    out << a.when << ' ' << a.weight_ratio << ' ' << a.decrease << ' ';
    append(out, a.demanded_bytes_per_sec);
  }
  return fnv1a(out.str());
}

}  // namespace perfbench
