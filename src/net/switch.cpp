#include "net/switch.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace src::net {

void Switch::finalize_ports(std::size_t node_count) {
  routes_.assign(node_count, -1);
  ingress_bytes_.assign(port_count(), 0);
  pause_sent_.assign(port_count(), false);
  for (std::size_t i = 0; i < port_count(); ++i) {
    port(i).set_ecn(config_.ecn);
    port(i).on_dequeue = [this](Packet& packet) { account_dequeue(packet); };
  }
}

void Switch::receive(Packet packet, std::int32_t ingress_port) {
  switch (packet.kind) {
    case PacketKind::kPause:
      // The downstream device on `ingress_port` asked us to stop sending
      // to it: pause our egress transmitter on that port.
      ++stats_.pauses_received;
      port(static_cast<std::size_t>(ingress_port)).pause();
      return;
    case PacketKind::kResume:
      port(static_cast<std::size_t>(ingress_port)).resume();
      return;
    case PacketKind::kData:
    case PacketKind::kCnp:
    case PacketKind::kDelayAck:
      break;
  }

  const std::int32_t egress = route(packet.dst);
  if (egress < 0) {
    throw std::runtime_error(name() + ": no route to node " +
                             std::to_string(packet.dst));
  }

  // PFC ingress accounting: the packet occupies switch buffer until its
  // egress transmitter picks it up.
  packet.ingress_port = static_cast<std::int16_t>(ingress_port);
  ingress_bytes_[static_cast<std::size_t>(ingress_port)] += packet.wire_bytes();
  SRC_OBS_TRACE_COUNTER(
      "net", "switch.ingress_bytes", sim_.now(),
      static_cast<std::uint32_t>(ingress_port),
      static_cast<double>(ingress_bytes_[static_cast<std::size_t>(ingress_port)]));
  if (port(static_cast<std::size_t>(egress)).enqueue(packet)) {
    ++stats_.packets_forwarded;
  } else {
    // Dropped by fault injection before occupying the egress queue: undo
    // the ingress accounting or PFC would count the ghost bytes forever.
    ingress_bytes_[static_cast<std::size_t>(ingress_port)] -= packet.wire_bytes();
    ++stats_.packets_dropped;
  }
  check_pause(static_cast<std::size_t>(ingress_port));
}

void Switch::account_dequeue(Packet& packet) {
  if (packet.ingress_port < 0) return;
  const auto ingress = static_cast<std::size_t>(packet.ingress_port);
  // The field is only meaningful while the packet occupies this switch's
  // buffer (see packet.hpp): scrub it as the packet leaves for the wire so
  // the next hop never sees a stale index.
  packet.ingress_port = -1;
  ingress_bytes_[ingress] -= packet.wire_bytes();
  check_pause(ingress);
}

void Switch::check_pause(std::size_t ingress) {
  if (!config_.pfc.enabled) return;
  Port& upstream = port(ingress);
  if (!pause_sent_[ingress] && ingress_bytes_[ingress] > config_.pfc.xoff_bytes) {
    pause_sent_[ingress] = true;
    ++stats_.pauses_sent;
    SRC_OBS_COUNT("net.pfc.pauses_sent");
    SRC_OBS_INSTANT("net", "pfc.xoff", sim_.now(),
                    static_cast<std::uint32_t>(ingress),
                    static_cast<double>(ingress_bytes_[ingress]));
    Packet pause;
    pause.kind = PacketKind::kPause;
    pause.bytes = 0;
    upstream.send_control(pause);
  } else if (pause_sent_[ingress] && ingress_bytes_[ingress] < config_.pfc.xon_bytes) {
    pause_sent_[ingress] = false;
    ++stats_.resumes_sent;
    SRC_OBS_COUNT("net.pfc.resumes_sent");
    SRC_OBS_INSTANT("net", "pfc.xon", sim_.now(),
                    static_cast<std::uint32_t>(ingress),
                    static_cast<double>(ingress_bytes_[ingress]));
    Packet resume;
    resume.kind = PacketKind::kResume;
    resume.bytes = 0;
    upstream.send_control(resume);
  }
}

}  // namespace src::net
