#include "core/podscale.hpp"

#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "obs/fairness.hpp"

namespace src::core {
namespace {

/// Read capsules carry the requested size in the tag's low 31 bits.
constexpr std::uint32_t kReadTagBit = 0x80000000u;
constexpr std::uint32_t kReadReplyTag = 1;
constexpr std::uint64_t kCapsuleBytes = 64;

}  // namespace

double PodExperimentResult::read_fairness_index() const {
  std::vector<double> values;
  values.reserve(per_initiator_read_bytes.size());
  for (const std::uint64_t b : per_initiator_read_bytes) {
    values.push_back(static_cast<double>(b));
  }
  return obs::jain_index(values);
}

common::Rate PodExperimentResult::read_rate() const {
  if (end_time <= 0) return common::Rate::zero();
  std::uint64_t total = 0;
  for (const std::uint64_t b : per_initiator_read_bytes) total += b;
  return common::Rate::bytes_per_second(static_cast<double>(total) * 1e9 /
                                        static_cast<double>(end_time));
}

std::string PodExperimentResult::snapshot() const {
  // Integers only: floating-point derivations (fairness, rates) are pure
  // functions of these fields, so the snapshot stays bit-comparable.
  std::ostringstream out;
  out << "pod-scale-v1\n";
  out << "completed " << (completed ? 1 : 0) << "\n";
  out << "end_time " << end_time << "\n";
  out << "events " << events_executed << "\n";
  out << "cross_shard " << cross_shard_messages << "\n";
  out << "pauses " << total_pauses << "\n";
  out << "reads " << reads_completed << "\n";
  out << "writes " << writes_completed << "\n";
  for (std::size_t i = 0; i < per_initiator_read_bytes.size(); ++i) {
    out << "initiator " << i << " read_bytes " << per_initiator_read_bytes[i]
        << "\n";
  }
  for (std::size_t t = 0; t < per_target_write_bytes.size(); ++t) {
    out << "target " << t << " write_bytes " << per_target_write_bytes[t]
        << "\n";
  }
  return out.str();
}

PodExperimentResult run_pod_experiment(const PodExperimentConfig& config) {
  if (!config.trace_for) {
    throw std::invalid_argument("run_pod_experiment: trace_for is required");
  }
  if (config.initiator_count < 1 || config.target_count < 1) {
    throw std::invalid_argument(
        "run_pod_experiment: need at least one initiator and one target");
  }
  if (config.stripe_width < 1 || config.stripe_width > config.target_count) {
    throw std::invalid_argument(
        "run_pod_experiment: stripe_width must be in [1, target_count]");
  }

  obs::ObsScope obs_scope(config.observatory);

  const net::PodShardPlan plan{config.grammar.pods, config.grammar.racks_per_pod,
                               config.partition};
  sim::LaneGroup lanes(plan.shard_count(),
                       config.lanes == 0 ? 1 : config.lanes);
  net::Network network(lanes, config.net);
  const net::PodTopology topo =
      net::make_pod(network, config.grammar, config.partition);

  const std::size_t host_count = topo.hosts.size();
  if (config.initiator_count + config.target_count > host_count) {
    throw std::invalid_argument(
        "run_pod_experiment: initiators + targets exceed the grammar's " +
        std::to_string(host_count) + " hosts");
  }

  // Initiators at the front (pod 0 first), targets at the back (tail pod):
  // with more than one pod every striped I/O crosses the spine.
  std::vector<net::NodeId> initiator_nodes(
      topo.hosts.begin(), topo.hosts.begin() + config.initiator_count);
  std::vector<net::NodeId> target_nodes(
      topo.hosts.end() - config.target_count, topo.hosts.end());

  apply_initiator_cc(network, config.initiator_cc, initiator_nodes,
                     target_nodes);

  // Accumulators. Each slot is written only by handlers of one host, i.e.
  // from exactly one shard; the main thread reads them between slices and
  // after the run, when the lanes are quiescent.
  const std::size_t n_init = initiator_nodes.size();
  const std::size_t n_targets = target_nodes.size();
  std::vector<std::uint64_t> read_bytes(n_init, 0);
  std::vector<std::uint64_t> read_replies(n_init, 0);
  std::vector<std::uint64_t> write_bytes(n_targets, 0);
  std::vector<std::uint64_t> writes_received(n_targets, 0);

  for (std::size_t t = 0; t < n_targets; ++t) {
    net::Host& target = network.host(target_nodes[t]);
    target.set_message_handler(
        [reply_host = &target, wb = &write_bytes[t], wr = &writes_received[t]](
            net::NodeId src, const net::MessageHeader&, std::uint64_t bytes,
            std::uint32_t tag) {
          if ((tag & kReadTagBit) != 0) {
            reply_host->send_message(src, tag & ~kReadTagBit, kReadReplyTag);
          } else {
            *wb += bytes;
            ++*wr;
          }
        });
  }
  for (std::size_t i = 0; i < n_init; ++i) {
    net::Host& initiator = network.host(initiator_nodes[i]);
    initiator.set_data_handler(
        [rb = &read_bytes[i]](net::NodeId, std::uint32_t bytes,
                              std::uint32_t tag) {
          if (tag == kReadReplyTag) *rb += bytes;
        });
    initiator.set_message_handler(
        [rr = &read_replies[i]](net::NodeId, const net::MessageHeader&,
                                std::uint64_t, std::uint32_t tag) {
          if (tag == kReadReplyTag) ++*rr;
        });
  }

  // Replay: each record is split into stripe_width chunks over consecutive
  // targets; every chunk is one item of a series on its initiator's own
  // kernel, so the whole workload is on the event lanes (one calendar
  // entry per initiator) before the first window runs.
  struct Send {
    common::SimTime at;
    std::uint64_t bytes;
    net::NodeId dst;
    std::uint32_t tag;
  };
  std::vector<std::uint64_t> reads_issued(n_init, 0);
  std::vector<std::uint64_t> writes_expected(n_targets, 0);
  for (std::size_t i = 0; i < n_init; ++i) {
    net::Host* initiator = &network.host(initiator_nodes[i]);
    sim::Simulator& kernel =
        lanes.kernel(network.shard_of(initiator_nodes[i]));
    const workload::Trace trace = config.trace_for(i);
    auto sends = std::make_shared<std::vector<Send>>();
    std::size_t chunk_cursor = 0;
    for (const workload::TraceRecord& record : trace) {
      const std::uint64_t base = record.bytes / config.stripe_width;
      const std::uint64_t rem = record.bytes % config.stripe_width;
      for (std::size_t c = 0; c < config.stripe_width; ++c) {
        const std::uint64_t chunk = base + (c < rem ? 1 : 0);
        if (chunk == 0) continue;
        const std::size_t t = chunk_cursor++ % n_targets;
        const net::NodeId dst = target_nodes[t];
        if (record.type == common::IoType::kWrite) {
          ++writes_expected[t];
          sends->push_back({record.arrival, chunk, dst, 0});
        } else {
          ++reads_issued[i];
          sends->push_back({record.arrival, kCapsuleBytes, dst,
                            kReadTagBit | static_cast<std::uint32_t>(chunk)});
        }
      }
    }
    kernel.schedule_series(
        sends->size(), [sends](std::size_t k) { return (*sends)[k].at; },
        [sends, initiator](std::size_t k) {
          const Send& send = (*sends)[k];
          initiator->send_message(send.dst, send.bytes, send.tag);
        });
  }

  // Run in slices, polling completion while the lanes are quiescent.
  const common::SimTime slice = 5 * common::kMillisecond;
  common::SimTime deadline = 0;
  bool all_done = false;
  while (deadline < config.max_time) {
    deadline += slice;
    lanes.run_until(deadline);
    all_done = true;
    for (std::size_t i = 0; i < n_init && all_done; ++i) {
      all_done = read_replies[i] == reads_issued[i];
    }
    for (std::size_t t = 0; t < n_targets && all_done; ++t) {
      all_done = writes_received[t] == writes_expected[t];
    }
    if (all_done || lanes.drained()) break;
  }

  PodExperimentResult result;
  result.per_initiator_read_bytes = read_bytes;
  result.per_target_write_bytes = write_bytes;
  for (const std::uint64_t r : read_replies) result.reads_completed += r;
  for (const std::uint64_t w : writes_received) result.writes_completed += w;
  result.total_pauses = network.total_host_pauses();
  result.events_executed = lanes.executed_events();
  result.cross_shard_messages = lanes.cross_shard_messages();
  result.windows = lanes.windows_executed();
  result.completed = all_done;
  result.end_time = lanes.now();

  SRC_OBS_GAUGE("core.pod.read_rate_mbps", result.read_rate().as_mbps());
  SRC_OBS_GAUGE("core.pod.read_jain_index", result.read_fairness_index());
  SRC_OBS_GAUGE("core.pod.total_pauses",
                static_cast<double>(result.total_pauses));
  SRC_OBS_GAUGE("core.pod.end_time_ms",
                common::to_milliseconds(result.end_time));
  SRC_OBS_GAUGE("core.pod.windows", static_cast<double>(result.windows));
  return result;
}

}  // namespace src::core
