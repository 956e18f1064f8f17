// Conservative parallel discrete-event engine (DESIGN.md §14). A LaneGroup
// owns one Simulator kernel per *shard* — a fixed partition of the modelled
// system — and executes the shards on up to `lane_count` worker threads in
// lockstep time windows:
//
//   window = [t_min, t_min + lookahead)
//
// where t_min is the earliest pending event over all kernels and the
// lookahead is the minimum cross-shard propagation delay. Any event inside
// the window can only schedule cross-shard work at t >= t_min + lookahead,
// i.e. at-or-after the window's end, so every kernel may run its slice of
// the window with no peeking at its neighbours.
//
// Cross-shard deliveries go through per-(src, dst) outbox mailboxes with
// one column per window parity: post() appends to the open column of the
// (src, dst) box (written only by the thread executing `src`), and at the
// start of the next window each destination shard drains the closed column
// in (when, src_shard, post_seq) order into its own calendar. That merge
// order is a function of shard-local execution only, so the results are
// bit-identical for every lane count — lanes are pure executors of a fixed
// shard decomposition, never a source of nondeterminism. The
// lane-determinism golden tests pin exactly this.
//
// One loop serves every lane count and crosses one barrier per window. The
// barrier's completion step plans the next window from each lane's
// published lower bound and, every few windows, reassigns shards to lanes
// by their executed-event counts (deterministic, so the placement — like
// the results — never depends on wall time).
//
// Instrumentation: the observatory current when run_until is called (the
// caller's) sees the same record at every lane count. Shard 0 records
// straight into it; shards 1..n-1 each record into a private observatory
// with the same config, and run_until merges those into the caller's in
// shard order before it returns. With no observatory current, nothing
// records and no private observatory is made.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace src::sim {

class LaneGroup {
 public:
  using Callback = Simulator::Callback;

  /// `shard_count` fixes the decomposition (and therefore the results);
  /// `lane_count` only sets how many threads execute it, clamped to
  /// [1, shard_count]. lane_count 1 runs every window inline.
  LaneGroup(std::size_t shard_count, std::size_t lane_count);

  LaneGroup(const LaneGroup&) = delete;
  LaneGroup& operator=(const LaneGroup&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t lane_count() const { return lane_count_; }

  Simulator& kernel(std::size_t shard) { return *shards_[shard]; }
  const Simulator& kernel(std::size_t shard) const { return *shards_[shard]; }

  /// The lane currently executing `shard`. Starts at `shard % lane_count`
  /// and moves only between windows; it never affects results.
  std::size_t lane_of(std::size_t shard) const { return lane_of_[shard]; }

  /// Conservative window width: the minimum cross-shard propagation delay.
  /// Must be >= 1 ns (a zero-delay cross-shard link admits no conservative
  /// window). Defaults to kTimeInfinity — correct while there is no
  /// cross-shard coupling at all (every window then runs to the deadline).
  void set_lookahead(common::SimTime lookahead);
  common::SimTime lookahead() const { return lookahead_; }

  /// Schedule `fn` at absolute time `when` on shard `dst`, posted from code
  /// currently executing on shard `src`. Cross-shard posts must respect the
  /// lookahead (`when >= kernel(src).now() + lookahead()`); violations
  /// throw std::logic_error — they mean the partitioner mapped a link whose
  /// delay undercuts the window width. Same-shard posts schedule directly.
  void post(std::size_t src, std::size_t dst, common::SimTime when, Callback fn);

  /// Execute windows until every kernel's next event is past `deadline`
  /// (events exactly at `deadline` still run) or everything drains. Between
  /// calls all lanes are quiescent, so the caller may freely inspect or
  /// mutate shard state. Instrumentation records into the calling thread's
  /// current observatory (see the header comment).
  void run_until(common::SimTime deadline);

  /// All kernels drained (mailboxes are always empty between run_until
  /// calls: the last window's mail is drained before run_until returns).
  bool drained() const;

  /// Frontier clock: the maximum kernel clock (kernel clocks advance
  /// per-shard exactly as a lone Simulator's would).
  common::SimTime now() const;

  std::uint64_t executed_events() const;
  /// Total cross-shard messages posted so far.
  std::uint64_t cross_shard_messages() const;
  /// Conservative windows executed so far. A function of the simulated
  /// timeline only, so it is identical at every lane count.
  std::uint64_t windows_executed() const { return windows_; }

 private:
  class WindowBarrier;

  struct Mail {
    common::SimTime when;
    std::uint64_t seq;  ///< per-(src, dst) post sequence
    Callback fn;
  };
  /// One (src, dst) mailbox with a column per window parity. Padded to its
  /// own cache line: boxes are adjacent in one vector but written by
  /// different lanes.
  struct alignas(64) Outbox {
    std::vector<Mail> mail[2];
    std::uint64_t next_seq = 0;
  };
  /// Merge key for one pending delivery while draining a column.
  struct MailRef {
    common::SimTime when;
    std::size_t src;
    std::uint64_t seq;
    Mail* mail;
  };
  /// Per-lane window report, written only by its lane (and by post() from
  /// that lane's shards), read by the completion step.
  struct alignas(64) LaneSlot {
    common::SimTime next = common::kTimeInfinity;  ///< earliest pending event
    common::SimTime earliest_post = common::kTimeInfinity;
    /// (src * shard_count + dst) of every box its shards opened this window.
    std::vector<std::size_t> filled;
  };
  /// Per-destination drain state: `sources` is filled by the completion
  /// step and consumed by the destination's lane.
  struct alignas(64) Inbox {
    std::vector<std::size_t> sources;  ///< sources with mail in the column
    std::vector<MailRef> merged;       ///< scratch for the merge sort
  };

  Outbox& outbox(std::size_t src, std::size_t dst) {
    return outboxes_[src * shards_.size() + dst];
  }

  /// One lane's window loop: drain the closed mail column into its
  /// shards, run them to the horizon, publish, and cross the window
  /// barrier — a plain call to end_window() when `barrier` is null.
  void run_lane(std::size_t lane, WindowBarrier* barrier);
  /// Drain dst's non-empty boxes of the closed column into its calendar in
  /// (when, src, seq) order. Runs on dst's lane.
  void drain(std::size_t dst);
  /// The barrier's completion step (exactly one thread, all others
  /// waiting): count the window, periodically rebalance, plan the next.
  void end_window();
  /// Close the open mail column and plan the next window from the lanes'
  /// published bounds; sets stop_ when nothing remains at or before the
  /// deadline.
  void plan_window();
  /// Longest-processing-time shard placement on executed-event deltas.
  void rebalance();
  /// The observatory `shard` records into while it runs.
  obs::Observatory* observatory_of(std::size_t shard) const {
    return shard == 0 ? caller_obs_ : shard_obs_[shard - 1].get();
  }

  std::vector<std::unique_ptr<Simulator>> shards_;
  std::size_t lane_count_ = 1;
  common::SimTime lookahead_ = common::kTimeInfinity;
  std::vector<Outbox> outboxes_;  ///< (src * shard_count + dst)
  std::vector<Inbox> inboxes_;    ///< per dst
  std::vector<LaneSlot> lane_slots_;
  // Written only by the completion step (or between run_until calls).
  std::vector<std::size_t> lane_of_;  ///< shard -> lane
  std::vector<std::vector<std::size_t>> lane_shards_;  ///< lane -> shards
  std::vector<std::uint64_t> placed_events_;  ///< per shard, at last rebalance
  unsigned open_column_ = 0;  ///< column post() appends to
  common::SimTime deadline_ = 0;
  common::SimTime horizon_ = 0;
  bool stop_ = false;
  std::uint64_t windows_ = 0;
  // Set for the duration of one run_until: the caller's observatory and,
  // when it is non-null, one private observatory per shard 1..n-1.
  obs::Observatory* caller_obs_ = nullptr;
  std::vector<std::unique_ptr<obs::Observatory>> shard_obs_;
};

}  // namespace src::sim
