#include "sim/lane.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>

namespace src::sim {

using common::SimTime;
using common::kTimeInfinity;

namespace {

/// Windows between shard placements. Long enough that the executed-event
/// deltas are a stable load estimate, short enough to follow an in-cast's
/// load as it moves from the initiators' racks to the targets'.
constexpr std::uint64_t kRebalanceWindows = 64;

/// Pause iterations a lane spins on the barrier before parking: about half
/// a millisecond on current x86, against windows of a few to tens of
/// microseconds, so a lane parks only across long stalls (thread start-up,
/// a descheduled vCPU) and a window normally costs no system call.
constexpr int kBarrierSpins = 1 << 15;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

/// One-phase barrier: the last lane to arrive runs the completion step,
/// then releases the others by bumping the generation word. Waiters spin
/// on it for a bounded number of pauses, then park in atomic::wait.
class LaneGroup::WindowBarrier {
 public:
  explicit WindowBarrier(std::size_t parties) : parties_(parties) {}

  template <typename Completion>
  void arrive_and_wait(Completion&& completion) {
    // Relaxed is enough: the generation cannot advance before this lane
    // arrives, and this lane already observed the current value.
    const std::uint32_t generation =
        generation_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      completion();
      generation_.store(generation + 1, std::memory_order_release);
      generation_.notify_all();
      return;
    }
    for (int spin = 0; spin < kBarrierSpins; ++spin) {
      if (generation_.load(std::memory_order_acquire) != generation) return;
      cpu_relax();
    }
    generation_.wait(generation, std::memory_order_acquire);
  }

 private:
  const std::size_t parties_;
  alignas(64) std::atomic<std::size_t> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> generation_{0};
};

LaneGroup::LaneGroup(std::size_t shard_count, std::size_t lane_count) {
  if (shard_count == 0) {
    throw std::invalid_argument("LaneGroup: shard_count must be >= 1");
  }
  shards_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  lane_count_ = std::clamp<std::size_t>(lane_count, 1, shard_count);
  outboxes_.resize(shard_count * shard_count);
  inboxes_.resize(shard_count);
  lane_slots_.resize(lane_count_);
  lane_of_.resize(shard_count);
  lane_shards_.resize(lane_count_);
  placed_events_.assign(shard_count, 0);
  for (std::size_t s = 0; s < shard_count; ++s) {
    lane_of_[s] = s % lane_count_;
    lane_shards_[lane_of_[s]].push_back(s);
  }
}

void LaneGroup::set_lookahead(SimTime lookahead) {
  if (lookahead < 1) {
    throw std::invalid_argument(
        "LaneGroup: lookahead must be >= 1 ns (a zero-delay cross-shard link "
        "cannot be windowed conservatively)");
  }
  lookahead_ = lookahead;
}

void LaneGroup::post(std::size_t src, std::size_t dst, SimTime when,
                     Callback fn) {
  if (src == dst) {
    kernel(src).schedule_at(when, std::move(fn));
    return;
  }
  const SimTime earliest = kernel(src).now() +
                           (lookahead_ == kTimeInfinity ? 0 : lookahead_);
  if (when < earliest) {
    throw std::logic_error(
        "LaneGroup::post: cross-shard delivery at t=" + std::to_string(when) +
        " undercuts the lookahead window (src shard now=" +
        std::to_string(kernel(src).now()) +
        ", lookahead=" + std::to_string(lookahead_) +
        ") — a cross-shard link is faster than the declared lookahead");
  }
  Outbox& box = outbox(src, dst);
  std::vector<Mail>& column = box.mail[open_column_];
  LaneSlot& slot = lane_slots_[lane_of_[src]];
  if (column.empty()) slot.filled.push_back(src * shards_.size() + dst);
  slot.earliest_post = std::min(slot.earliest_post, when);
  column.push_back(Mail{when, box.next_seq++, std::move(fn)});
}

void LaneGroup::drain(std::size_t dst) {
  Inbox& inbox = inboxes_[dst];
  if (inbox.sources.empty()) return;
  const unsigned closed = open_column_ ^ 1u;
  std::vector<MailRef>& merged = inbox.merged;
  merged.clear();
  for (const std::size_t src : inbox.sources) {
    for (Mail& m : outbox(src, dst).mail[closed]) {
      merged.push_back(MailRef{m.when, src, m.seq, &m});
    }
  }
  // (when, src, seq) is a total order — per-(src, dst) sequences are unique
  // — so a plain sort is deterministic regardless of arrival layout.
  std::sort(merged.begin(), merged.end(),
            [](const MailRef& a, const MailRef& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  Simulator& sink = kernel(dst);
  for (MailRef& ref : merged) {
    sink.schedule_at(ref.when, std::move(ref.mail->fn));
  }
  for (const std::size_t src : inbox.sources) {
    outbox(src, dst).mail[closed].clear();
  }
  inbox.sources.clear();
}

void LaneGroup::plan_window() {
  // Every delivery is either in a kernel or was posted this window, so
  // the minimum over the lanes' bounds is the global next event time.
  const std::size_t shard_count = shards_.size();
  SimTime t_min = kTimeInfinity;
  for (LaneSlot& slot : lane_slots_) {
    t_min = std::min({t_min, slot.next, slot.earliest_post});
    slot.earliest_post = kTimeInfinity;
    for (const std::size_t box : slot.filled) {
      inboxes_[box % shard_count].sources.push_back(box / shard_count);
    }
    slot.filled.clear();
  }
  open_column_ ^= 1u;
  stop_ = t_min == kTimeInfinity || t_min > deadline_;
  if (stop_) return;
  // Events strictly before t_min + lookahead are safe to run; the kernel
  // contract is inclusive, so the horizon is the last safe instant.
  const SimTime window_end = (lookahead_ == kTimeInfinity ||
                              t_min > kTimeInfinity - lookahead_)
                                 ? kTimeInfinity
                                 : t_min + lookahead_;
  horizon_ = std::min(window_end - 1, deadline_);
}

void LaneGroup::end_window() {
  ++windows_;
  if (lane_count_ > 1 && windows_ % kRebalanceWindows == 0) rebalance();
  plan_window();
}

void LaneGroup::rebalance() {
  // Longest processing time first: the busiest shards since the last
  // placement each go to the least-loaded lane. Ties break by shard index,
  // then lane index, so placement is a pure function of event counts.
  const std::size_t shard_count = shards_.size();
  std::vector<std::uint64_t> load(shard_count);
  std::vector<std::size_t> order(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::uint64_t executed = kernel(s).executed_events();
    load[s] = executed - placed_events_[s];
    placed_events_[s] = executed;
    order[s] = s;
  }
  std::sort(order.begin(), order.end(), [&load](std::size_t a, std::size_t b) {
    if (load[a] != load[b]) return load[a] > load[b];
    return a < b;
  });
  std::vector<std::uint64_t> lane_load(lane_count_, 0);
  for (const std::size_t s : order) {
    const auto lightest = static_cast<std::size_t>(
        std::min_element(lane_load.begin(), lane_load.end()) -
        lane_load.begin());
    lane_of_[s] = lightest;
    lane_load[lightest] += load[s];
  }
  for (std::vector<std::size_t>& shards : lane_shards_) shards.clear();
  for (std::size_t s = 0; s < shard_count; ++s) {
    lane_shards_[lane_of_[s]].push_back(s);
  }
}

void LaneGroup::run_lane(std::size_t lane, WindowBarrier* barrier) {
  for (;;) {
    for (const std::size_t s : lane_shards_[lane]) drain(s);
    if (stop_) return;
    SimTime next = kTimeInfinity;
    for (const std::size_t s : lane_shards_[lane]) {
      // A shard records into its own observatory whichever lane runs it,
      // so the record cannot depend on the lane count.
      const obs::ObsScope scope(observatory_of(s));
      Simulator& shard = kernel(s);
      shard.run_until(horizon_);
      next = std::min(next, shard.next_event_time());
    }
    lane_slots_[lane].next = next;
    if (barrier == nullptr) {
      end_window();
    } else {
      barrier->arrive_and_wait([this] { end_window(); });
    }
  }
}

void LaneGroup::run_until(SimTime deadline) {
  caller_obs_ = obs::current();
  shard_obs_.clear();
  shard_obs_.resize(shards_.size() - 1);
  if (caller_obs_ != nullptr) {
    for (auto& own : shard_obs_) {
      own = std::make_unique<obs::Observatory>(caller_obs_->config(),
                                               /*reserve_trace=*/false);
    }
  }

  // Plan the first window as if one had just ended; this also closes the
  // column holding any mail posted between calls, so the loop drains it.
  deadline_ = deadline;
  for (std::size_t lane = 0; lane < lane_count_; ++lane) {
    SimTime next = kTimeInfinity;
    for (const std::size_t s : lane_shards_[lane]) {
      next = std::min(next, kernel(s).next_event_time());
    }
    lane_slots_[lane].next = next;
  }
  plan_window();

  if (lane_count_ == 1) {
    run_lane(0, nullptr);
  } else if (stop_) {
    for (std::size_t s = 0; s < shards_.size(); ++s) drain(s);
  } else {
    WindowBarrier barrier(lane_count_);
    std::vector<std::thread> workers;
    workers.reserve(lane_count_ - 1);
    for (std::size_t lane = 1; lane < lane_count_; ++lane) {
      workers.emplace_back([this, lane, &barrier] { run_lane(lane, &barrier); });
    }
    run_lane(0, &barrier);
    for (std::thread& worker : workers) worker.join();
  }

  // Nothing at or before `deadline` remains, so this only advances drained
  // kernels' clocks — the same clock a lone Simulator::run_until leaves.
  for (const auto& shard : shards_) {
    shard->run_until(deadline);
  }

  if (caller_obs_ != nullptr) {
    for (const auto& own : shard_obs_) caller_obs_->merge(*own);
  }
  shard_obs_.clear();
}

bool LaneGroup::drained() const {
  for (const auto& shard : shards_) {
    if (!shard->empty()) return false;
  }
  return true;
}

SimTime LaneGroup::now() const {
  SimTime frontier = 0;
  for (const auto& shard : shards_) {
    frontier = std::max(frontier, shard->now());
  }
  return frontier;
}

std::uint64_t LaneGroup::executed_events() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->executed_events();
  }
  return total;
}

std::uint64_t LaneGroup::cross_shard_messages() const {
  std::uint64_t total = 0;
  for (const Outbox& box : outboxes_) {
    total += box.next_seq;
  }
  return total;
}

}  // namespace src::sim
