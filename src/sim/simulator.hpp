// Discrete-event simulation kernel. A single-threaded event loop with an
// 8-ary heap calendar; ties are broken by insertion sequence number so a
// given seed always produces the identical execution order.
//
// Hot-path layout (see DESIGN.md §10):
//  - Callbacks are small-buffer-optimized (InlineFunction) and constructed
//    directly into a recycled slot arena by the templated schedule_at — the
//    common closure is never heap-allocated and never moved.
//  - Calendar entries are 16 bytes: the event's (nonnegative) time and a
//    packed (seq << kSlotBits) | slot key. On little-endian targets the
//    (when, seq) lexicographic comparison is a single unsigned 128-bit
//    integer compare, and the heap buffer is offset so every 8-child
//    sibling group occupies exactly two adjacent 64-byte cache lines.
//  - The slot arena is chunked (stable addresses), so step() executes the
//    closure in place: no per-event move-out, and the closure may freely
//    schedule (growing the arena) or cancel while it runs. step()
//    prefetches the top event's slot before the sift-down so the (random)
//    arena access overlaps the heap walk.
//  - Cancellation retires the slot's live sequence number in O(1). A stale
//    EventId can never match (sequence numbers are unique forever), which
//    both fixes the historical unbounded growth of the tombstone set when
//    already-fired events were cancelled and removes the per-step hash
//    lookup the old `unordered_set` design paid.
//  - A series (schedule_series: a trace replay) reserves its sequence
//    numbers up front but keeps only its next item in the calendar: one
//    slot is re-keyed and re-pushed as each item fires, so a 10k-record
//    replay costs one entry and one closure instead of 10k of each.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "obs/obs.hpp"
#include "sim/inline_function.hpp"

namespace src::sim {

using common::SimTime;

/// Bytes of in-place closure storage per scheduled event. Sized for the
/// kernel's common closures (a couple of pointers plus a trace record);
/// larger captures transparently fall back to one heap allocation.
inline constexpr std::size_t kCallbackInlineBytes = 64;

/// Opaque handle to a scheduled event; can be used to cancel it. A handle
/// names exactly one event for all time: it carries the event's unique
/// sequence number, so a handle kept past its event's execution (or past a
/// cancel) is inert even after the underlying slot has been recycled.
class EventId {
 public:
  constexpr EventId() = default;
  constexpr bool valid() const { return seq_ != 0; }
  friend constexpr bool operator==(EventId a, EventId b) = default;

 private:
  friend class Simulator;
  constexpr EventId(std::uint32_t slot, std::uint64_t seq)
      : slot_(slot), seq_(seq) {}
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;
};

/// The event calendar and simulation clock. Not thread-safe: the whole
/// simulated system runs on one logical timeline. (Parallel sweeps — e.g.
/// the Fig 5 grid or TPM sample collection — run one Simulator per task;
/// see src/runner.)
class Simulator {
 public:
  using Callback = InlineFunction<kCallbackInlineBytes>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator() { release_heap(); }

  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `when`; clamped to now() if in the
  /// past. The closure is constructed directly into its arena slot.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_at(SimTime when, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_ref(slot);
    try {
      s.fn.emplace(std::forward<F>(fn));
    } catch (...) {
      free_slots_.push_back(slot);
      throw;
    }
    return commit(slot, s, when);
  }

  /// Overload for a pre-built callback (moved, not re-wrapped).
  EventId schedule_at(SimTime when, Callback fn) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_ref(slot);
    s.fn = std::move(fn);
    return commit(slot, s, when);
  }

  /// Schedule `fn` after `delay` nanoseconds.
  template <typename F>
  EventId schedule_in(SimTime delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `n` events in one call: item i runs `fire(i)` at absolute
  /// time `at(i)`, clamped to now(). The call reserves n consecutive
  /// sequence numbers, so execution order, executed_events() and the
  /// `sim.events_executed` counter are exactly those of n schedule_at calls
  /// made at this moment — but only the next item sits in the calendar
  /// (keyed (at(i), base + i)) and the series holds one arena slot, however
  /// long it is. `at` must be a pure, non-decreasing function of i, or the
  /// call throws std::invalid_argument. A series cannot be cancelled.
  template <typename At, typename Fire>
  void schedule_series(std::size_t n, At at, Fire fire) {
    if (n == 0) return;
    const SimTime first = at(0);
    SimTime prev = first;
    for (std::size_t i = 1; i < n; ++i) {
      const SimTime t = at(i);
      if (t < prev) {
        throw std::invalid_argument(
            "Simulator::schedule_series: times must be non-decreasing");
      }
      prev = t;
    }
    if (n > kMaxSeq - next_seq_) {
      throw std::length_error("Simulator: sequence number space exhausted");
    }
    const std::uint64_t base = next_seq_ + 1;
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_ref(slot);
    try {
      s.fn.emplace(Series<At, Fire>{this, std::move(at), std::move(fire), n, 0, now_});
    } catch (...) {
      free_slots_.push_back(slot);
      throw;
    }
    next_seq_ += n;
    s.seq = base;
    heap_push(Entry{(base << kSlotBits) | slot,
                    static_cast<std::uint64_t>(first > now_ ? first : now_)});
  }

  /// Cancel a pending event. Safe to call on already-fired, already-
  /// cancelled, or invalid ids: the id's sequence number must match the
  /// slot's live one, so stale handles are no-ops. O(1); the closure is
  /// released immediately, the calendar entry is reclaimed when it
  /// surfaces at the top of the heap.
  void cancel(EventId id) {
    if (!id.valid() || id.slot_ >= slot_count_) return;
    Slot& s = slot_ref(id.slot_);
    if (s.seq != id.seq_) return;
    s.seq = 0;
    s.fn.reset();
    ++cancelled_pending_;
  }

  bool empty() const { return heap_size_ == 0; }
  std::size_t pending_events() const { return heap_size_; }
  std::uint64_t executed_events() const { return executed_; }

  /// Earliest pending calendar entry; kTimeInfinity when drained. A
  /// cancelled-but-unreclaimed entry may still report its original time —
  /// harmless (and deterministic) for conservative window planning, which
  /// only needs a lower bound on the next executable event.
  SimTime next_event_time() const {
    return heap_size_ > 0 ? static_cast<SimTime>(heap_[0].when)
                          : common::kTimeInfinity;
  }

  /// Introspection (tests / leak regression): slots ever allocated, and
  /// cancelled entries still awaiting reclamation from the calendar. Both
  /// are bounded by the peak number of concurrently pending events (plus
  /// the one slot held by a currently-executing callback) — cancelling
  /// already-fired ids must never grow either.
  std::size_t slot_count() const { return slot_count_; }
  std::size_t cancelled_pending() const { return cancelled_pending_; }

  /// Execute the next non-cancelled event. Returns false when drained.
  bool step() { return step_until(std::numeric_limits<SimTime>::max()); }

  /// Run until the calendar drains or the clock passes `deadline`.
  /// Events scheduled exactly at `deadline` still execute; no event after
  /// it does.
  void run_until(SimTime deadline) {
    while (step_until(deadline)) {}
    if (now_ < deadline && heap_size_ == 0) now_ = deadline;
  }

  /// Run until the calendar drains completely.
  void run() {
    while (step()) {}
  }

 private:
  /// Execute the next non-cancelled event due by `deadline`, reclaiming
  /// cancelled entries on the way. Returns false when none is due.
  bool step_until(SimTime deadline) {
    // The deadline is checked before every pop, so a cancelled entry at the
    // top is reclaimed without running a live event that lies past it.
    while (heap_size_ > 0 && static_cast<SimTime>(heap_[0].when) <= deadline) {
#if defined(__GNUC__)
      {
        // Start pulling the top event's slot in while the sift-down walks
        // the heap: the arena access pattern is effectively random, and
        // this overlap hides most of its miss latency. The slot layout puts
        // seq, the dispatch pointer, and the head of the closure in the
        // first line; the tail of a large closure sits in the second.
        const Slot* top =
            &slot_ref(static_cast<std::uint32_t>(heap_[0].key & kSlotMask));
        __builtin_prefetch(top);
        __builtin_prefetch(reinterpret_cast<const char*>(top) + 64);
      }
#endif
      const Entry e = heap_pop();
      const auto slot = static_cast<std::uint32_t>(e.key & kSlotMask);
      Slot& s = slot_ref(slot);
      if (s.seq != (e.key >> kSlotBits)) {  // tombstone from cancel()
        --cancelled_pending_;
        free_slots_.push_back(slot);
        continue;
      }
      s.seq = 0;  // executing: a self-cancel from the closure is inert
      now_ = static_cast<SimTime>(e.when);
      ++executed_;
      SRC_OBS_COUNT("sim.events_executed");
      // The closure runs in place in its (address-stable) slot and the slot
      // is recycled only after it returns, so it may freely schedule — even
      // growing the arena — or cancel without its own storage moving.
      const ReleaseGuard guard{this, &s, slot, e.key >> kSlotBits};
      s.fn();
      return true;
    }
    return false;
  }

  // The packed key splits 64 bits between the globally-unique sequence
  // number (high) and the arena slot (low); comparing keys compares
  // sequence numbers, so tie order is exactly insertion order.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = (1ull << (64 - kSlotBits)) - 1;

  /// Calendar entry. 16 trivially-copyable bytes; `when` is nonnegative so
  /// its unsigned representation orders identically, and with `key` in the
  /// low quadword the (when, seq) lexicographic order is one unsigned
  /// 128-bit compare on little-endian targets.
  struct Entry {
    std::uint64_t key;   ///< (seq << kSlotBits) | slot
    std::uint64_t when;  ///< event time, always >= 0
  };
  static_assert(sizeof(Entry) == 16);
  static_assert(std::is_trivially_copyable_v<Entry>);

  // Chunked slot arena: addresses are stable across growth, which is what
  // lets step() run closures in place while they schedule new events. seq
  // leads the slot so the tombstone check, the dispatch pointer, and the
  // head of the closure share the slot's first cache line.
  static constexpr std::uint32_t kSlotChunkBits = 8;
  static constexpr std::uint32_t kSlotChunkSize = 1u << kSlotChunkBits;
  struct Slot {
    std::uint64_t seq = 0;  ///< live sequence number; 0 = retired/free
    Callback fn;
  };

  // 8-ary min-heap on (when, seq): roughly a third of a binary heap's
  // depth, which matters once the calendar outgrows cache, and the buffer
  // is offset by kHeapPad entries so each 8-entry sibling group is two
  // adjacent 128-byte-aligned cache lines — a sift touches one line pair
  // per level.
  static constexpr std::size_t kArity = 8;
  static constexpr std::size_t kHeapPad = kArity - 1;
  static constexpr std::size_t kHeapAlign = kArity * sizeof(Entry);

  static bool earlier(const Entry& a, const Entry& b) {
#if defined(__SIZEOF_INT128__) && defined(__BYTE_ORDER__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    __extension__ typedef unsigned __int128 U128;
    U128 x;
    U128 y;
    std::memcpy(&x, &a, sizeof(x));
    std::memcpy(&y, &b, sizeof(y));
    return x < y;
#else
    if (a.when != b.when) return a.when < b.when;
    return a.key < b.key;
#endif
  }

  /// Recycles an executed event's slot — unless the event was a series
  /// item with items left, which re-keys the slot under the next reserved
  /// sequence number and puts it back in the calendar.
  struct ReleaseGuard {
    Simulator* sim;
    Slot* s;
    std::uint32_t slot;
    std::uint64_t seq;
    ~ReleaseGuard() {
      if (sim->series_next_at_ >= 0) {
        const auto at = static_cast<std::uint64_t>(sim->series_next_at_);
        sim->series_next_at_ = -1;
        s->seq = seq + 1;
        sim->heap_push(Entry{((seq + 1) << kSlotBits) | slot, at});
        return;
      }
      s->fn.reset();
      sim->free_slots_.push_back(slot);
    }
  };

  /// The closure a series keeps in its slot. Each invocation fires one
  /// item; when items remain it leaves the next one's time in
  /// `series_next_at_` for the ReleaseGuard. (Set only after `fire`
  /// returns, so an item that throws ends the series.)
  template <typename At, typename Fire>
  struct Series {
    Simulator* sim;
    At at;
    Fire fire;
    std::size_t n;
    std::size_t next;
    SimTime floor;  ///< now() when the series was scheduled

    void operator()() {
      fire(next++);
      if (next < n) {
        const SimTime when = at(next);
        sim->series_next_at_ = when > floor ? when : floor;
      }
    }
  };

  Slot& slot_ref(std::uint32_t slot) {
    return slot_chunks_[slot >> kSlotChunkBits]
                       [slot & (kSlotChunkSize - 1)];
  }

  EventId commit(std::uint32_t slot, Slot& s, SimTime when) {
    const std::uint64_t seq = ++next_seq_;
    if (seq > kMaxSeq) {
      s.fn.reset();
      free_slots_.push_back(slot);
      throw std::length_error("Simulator: sequence number space exhausted");
    }
    s.seq = seq;
    const SimTime at = when > now_ ? when : now_;
    heap_push(Entry{(seq << kSlotBits) | slot, static_cast<std::uint64_t>(at)});
    return EventId{slot, seq};
  }

  void heap_push(Entry e) {
    if (heap_size_ == heap_cap_) heap_grow();
    std::size_t i = heap_size_++;
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  Entry heap_pop() {
    const Entry top = heap_[0];
    const std::size_t n = --heap_size_;
    if (n > 0) {
      const Entry last = heap_[n];
      // Walk the hole to the bottom along the min-child path (one cache
      // line per level), then sift the displaced last entry back up — for
      // random calendars it belongs near a leaf, so the up-pass is short.
      // The sibling scan is deliberately branchy: the speculated `best`
      // lets the CPU issue the next level's cache-line load early, which
      // beats a branchless cmov chain that would serialize the loads.
      std::size_t i = 0;
      for (;;) {
        const std::size_t first = i * kArity + 1;
        if (first >= n) break;
        const std::size_t end = first + kArity < n ? first + kArity : n;
        std::size_t best = first;
        Entry bv = heap_[first];
        for (std::size_t c = first + 1; c < end; ++c) {
          if (earlier(heap_[c], bv)) {
            best = c;
            bv = heap_[c];
          }
        }
        heap_[i] = bv;
        i = best;
      }
      while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!earlier(last, heap_[parent])) break;
        heap_[i] = heap_[parent];
        i = parent;
      }
      heap_[i] = last;
    }
    return top;
  }

  void heap_grow() {
    const std::size_t cap = heap_cap_ == 0 ? 1024 : heap_cap_ * 2;
    auto* fresh = static_cast<Entry*>(::operator new(
        (cap + kHeapPad) * sizeof(Entry), std::align_val_t{kHeapAlign}));
    Entry* base = fresh + kHeapPad;
    if (heap_size_ > 0) std::memcpy(base, heap_, heap_size_ * sizeof(Entry));
    release_heap();
    heap_ = base;
    heap_cap_ = cap;
  }

  void release_heap() {
    if (heap_ != nullptr) {
      ::operator delete(heap_ - kHeapPad, std::align_val_t{kHeapAlign});
    }
  }

  std::uint32_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t s = free_slots_.back();
      free_slots_.pop_back();
      return s;
    }
    if (slot_count_ > kSlotMask) {
      throw std::length_error("Simulator: slot arena exhausted");
    }
    if ((slot_count_ >> kSlotChunkBits) == slot_chunks_.size()) {
      slot_chunks_.push_back(std::make_unique<Slot[]>(kSlotChunkSize));
    }
    return slot_count_++;
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t cancelled_pending_ = 0;
  SimTime series_next_at_ = -1;  ///< set by a Series item, read by ReleaseGuard
  Entry* heap_ = nullptr;  ///< logical index 0 (physical buffer + kHeapPad)
  std::size_t heap_size_ = 0;
  std::size_t heap_cap_ = 0;
  std::uint32_t slot_count_ = 0;
  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace src::sim
