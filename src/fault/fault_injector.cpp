#include "fault/fault_injector.hpp"

#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

namespace src::fault {

FaultInjector::FaultInjector(net::Network& network, FaultPlan plan)
    : network_(network), plan_(std::move(plan)) {
  for (std::size_t s = 0; s < network_.lanes().shard_count(); ++s) {
    std::uint64_t derived = plan_.seed + s;
    shards_.push_back(
        Shard{common::Rng(s == 0 ? plan_.seed : common::splitmix64(derived)), {}});
  }
}

FaultInjectorStats FaultInjector::stats() const {
  FaultInjectorStats total;
  for (const Shard& shard : shards_) {
    total.packets_dropped += shard.stats.packets_dropped;
    total.tpm_corruptions += shard.stats.tpm_corruptions;
    total.device_faults_applied += shard.stats.device_faults_applied;
    total.signal_loss_windows += shard.stats.signal_loss_windows;
  }
  return total;
}

void FaultInjector::add_target(fabric::Target& target) {
  if (armed_) throw std::logic_error("FaultInjector: add_target after arm()");
  targets_.push_back(&target);
}

void FaultInjector::add_controller(core::SrcController& controller,
                                   NodeId node) {
  if (armed_) throw std::logic_error("FaultInjector: add_controller after arm()");
  controllers_.push_back(&controller);
  controller_nodes_.push_back(node);
}

net::Node& FaultInjector::node(NodeId id) {
  if (network_.is_host(id)) return network_.host(id);
  return network_.switch_at(id);
}

void FaultInjector::arm() {
  if (armed_) throw std::logic_error("FaultInjector: arm() called twice");
  armed_ = true;

  // Expand the plan's network faults into per-port windows. Link-down
  // faults cover both directions (this port and its peer's reverse port)
  // and drop with certainty — no RNG draw — so they cannot shift the
  // draw sequence seen by probabilistic windows.
  for (const auto& f : plan_.packet_drops) {
    windows_.push_back(PortWindow{f.node, f.port, f.start, f.end,
                                  f.probability, /*certain=*/false});
  }
  for (const auto& f : plan_.link_downs) {
    net::Port& fwd = node(f.node).port(f.port);
    net::Node* peer = fwd.peer();
    if (peer == nullptr) {
      throw std::out_of_range("FaultInjector: link-down on an unattached port");
    }
    windows_.push_back(PortWindow{f.node, static_cast<std::int32_t>(f.port),
                                  f.down_at, f.up_at, 1.0, /*certain=*/true});
    windows_.push_back(PortWindow{peer->id(), fwd.peer_port(),
                                  f.down_at, f.up_at, 1.0, /*certain=*/true});
  }

  // One filter per concrete port; a -1 port index fans out to all ports.
  std::set<std::pair<NodeId, std::int32_t>> filtered;
  for (const auto& w : windows_) {
    if (w.port >= 0) {
      filtered.emplace(w.node, w.port);
    } else {
      net::Node& n = node(w.node);
      for (std::size_t p = 0; p < n.port_count(); ++p) {
        filtered.emplace(w.node, static_cast<std::int32_t>(p));
      }
    }
  }
  for (const auto& [id, port] : filtered) install_drop_filter(id, port);

  schedule_device_faults();
  schedule_signal_loss();
  install_prediction_hooks();
}

void FaultInjector::install_drop_filter(NodeId id, std::int32_t port) {
  const sim::Simulator& clock = network_.kernel_of(id);
  node(id).port(static_cast<std::size_t>(port))
      .set_drop_filter([this, id, port, &clock, &shard = shard_of(id)](
                           const net::Packet&) {
        return should_drop(id, port, clock.now(), shard);
      });
}

bool FaultInjector::should_drop(NodeId id, std::int32_t port, SimTime now,
                                Shard& shard) {
  // Certain (link-down) windows first and draw-free: see arm().
  for (const auto& w : windows_) {
    if (!w.certain || w.node != id) continue;
    if (w.port >= 0 && w.port != port) continue;
    if (now >= w.start && now < w.end) {
      ++shard.stats.packets_dropped;
      return true;
    }
  }
  for (const auto& w : windows_) {
    if (w.certain || w.node != id) continue;
    if (w.port >= 0 && w.port != port) continue;
    if (now < w.start || now >= w.end) continue;
    if (shard.rng.bernoulli(w.probability)) {
      ++shard.stats.packets_dropped;
      return true;
    }
  }
  return false;
}

void FaultInjector::schedule_device_faults() {
  auto target = [this](std::size_t index, std::size_t dev) -> fabric::Target& {
    if (index >= targets_.size()) {
      throw std::out_of_range("FaultInjector: fault names an unregistered target");
    }
    if (dev >= targets_[index]->device_count()) {
      throw std::out_of_range("FaultInjector: fault names a missing device");
    }
    return *targets_[index];
  };

  for (const auto& f : plan_.latency_spikes) {
    fabric::Target& t = target(f.target, f.device);
    sim::Simulator& sim = network_.kernel_of(t.node_id());
    ssd::SsdDevice& d = t.device(f.device);
      // srclint:capture-ok(injector and rig components share the simulator lifetime)
    sim.schedule_at(f.start, [&d, &shard = shard_of(t.node_id()), scale = f.scale] {
      d.inject_latency_scale(scale);
      ++shard.stats.device_faults_applied;
    });
      // srclint:capture-ok(injector and rig components share the simulator lifetime)
    sim.schedule_at(f.end, [&d] { d.inject_latency_scale(1.0); });
  }
  for (const auto& f : plan_.transient_errors) {
    fabric::Target& t = target(f.target, f.device);
    sim::Simulator& sim = network_.kernel_of(t.node_id());
    ssd::SsdDevice& d = t.device(f.device);
      // srclint:capture-ok(injector and rig components share the simulator lifetime)
    sim.schedule_at(f.start, [&d, &shard = shard_of(t.node_id()), p = f.probability] {
      d.set_transient_failure_rate(p);
      ++shard.stats.device_faults_applied;
    });
      // srclint:capture-ok(injector and rig components share the simulator lifetime)
    sim.schedule_at(f.end, [&d] { d.set_transient_failure_rate(0.0); });
  }
  for (const auto& f : plan_.outages) {
    fabric::Target* t = &target(f.target, f.device);
    sim::Simulator& sim = network_.kernel_of(t->node_id());
      // srclint:capture-ok(injector and rig components share the simulator lifetime)
    sim.schedule_at(f.offline_at, [t, &shard = shard_of(t->node_id()), dev = f.device] {
      t->set_device_online(dev, false);
      ++shard.stats.device_faults_applied;
    });
    sim.schedule_at(f.online_at, [t, dev = f.device] {
      t->set_device_online(dev, true);
    });
  }
}

void FaultInjector::schedule_signal_loss() {
  for (const auto& f : plan_.signal_losses) {
    if (f.target >= targets_.size()) {
      throw std::out_of_range("FaultInjector: signal loss on unregistered target");
    }
    fabric::Target* t = targets_[f.target];
    sim::Simulator& sim = network_.kernel_of(t->node_id());
      // srclint:capture-ok(injector and rig components share the simulator lifetime)
    sim.schedule_at(f.start, [t, &shard = shard_of(t->node_id())] {
      t->set_signal_loss(true);
      ++shard.stats.signal_loss_windows;
    });
    sim.schedule_at(f.end, [t] { t->set_signal_loss(false); });
  }
}

void FaultInjector::install_prediction_hooks() {
  // Hook only the controllers a fault actually names, so untouched
  // controllers keep a null (zero-cost) hook.
  std::set<std::size_t> hooked;
  for (const auto& f : plan_.tpm_faults) {
    if (f.controller >= controllers_.size()) {
      throw std::out_of_range("FaultInjector: TPM fault on unregistered controller");
    }
    hooked.insert(f.controller);
  }
  for (const std::size_t index : hooked) {
    controllers_[index]->set_prediction_hook(
        [this, index](double read) { return corrupt(index, read); });
  }
}

double FaultInjector::corrupt(std::size_t controller_index, double read_bytes_per_sec) {
  const NodeId node = controller_nodes_[controller_index];
  const SimTime now = network_.kernel_of(node).now();
  double out = read_bytes_per_sec;
  for (const auto& f : plan_.tpm_faults) {
    if (f.controller != controller_index) continue;
    if (now < f.start || now >= f.end) continue;
    switch (f.kind) {
      case TpmFaultKind::kNan:
        out = std::numeric_limits<double>::quiet_NaN();
        break;
      case TpmFaultKind::kInf:
        out = std::numeric_limits<double>::infinity();
        break;
      case TpmFaultKind::kNegative:
        out = -1.0e9;
        break;
      case TpmFaultKind::kHuge:
        out = 1.0e30;
        break;
    }
    ++shard_of(node).stats.tpm_corruptions;
  }
  return out;
}

}  // namespace src::fault
