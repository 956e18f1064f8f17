// LBA consistency tracker for the separate-submission-queue mechanism
// (paper §III-A): when a new request touches a logical page that an
// already-queued request also touches, the new request must be routed to
// the same submission queue so that dependent I/O executes in submission
// order. Tracking is page-granular.
//
// The tracker is the SSQ submit path's hot spot (an overloaded cell keeps
// tens of thousands of pages queued), so it is its own open-addressed
// table rather than a general map:
//  - route() decides the queue and records the request in one probe per
//    page. A request reserves room for all its pages first, so no rehash
//    happens mid-request and slot indices stay valid;
//  - a 12-byte slot holds the page and a packed (count << 1) | kind word;
//    count 0 means empty, so there is no separate occupancy array;
//  - the table is kept at most 3/4 full and deletes by backward shift, so
//    it never degrades;
//  - page keys are full 64-bit: trace LBAs are not bounded by the device.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace src::nvme {

enum class QueueKind : std::uint8_t { kReadQueue = 0, kWriteQueue = 1 };

constexpr QueueKind natural_queue(common::IoType type) {
  return type == common::IoType::kRead ? QueueKind::kReadQueue
                                       : QueueKind::kWriteQueue;
}

class ConsistencyTracker {
 public:
  explicit ConsistencyTracker(std::uint64_t page_bytes)
      : page_bytes_(page_bytes == 0 ? 1 : page_bytes) {}

  /// Routes a request about to be enqueued and records it as queued. The
  /// queue is the one holding the first page of the range (in LBA order)
  /// that already has a queued request, or `natural` when no page does;
  /// every page of the range is then recorded in that queue (overwriting
  /// the queue of a page it shares with an earlier request).
  QueueKind route(std::uint64_t lba, std::uint32_t bytes, QueueKind natural) {
    const auto [first, last] = page_range(lba, bytes);
    reserve(last - first + 1);
    // Pages before the first hit are fresh; their slots are remembered so
    // a hit can re-pin them without a second probe.
    fresh_.clear();
    std::optional<QueueKind> pinned;
    for (std::uint64_t page = first; page <= last; ++page) {
      const std::size_t i = probe(page);
      std::uint32_t& word = slots_[i].word;
      if (word == 0) {
        slots_[i].key = page;
        ++size_;
        if (!pinned) fresh_.push_back(i);
      } else if (!pinned) {
        pinned = kind_of(word);
      }
      word = ((word + 2) & ~1u) | bit(pinned.value_or(natural));
    }
    if (pinned && *pinned != natural) {
      for (const std::size_t i : fresh_) {
        slots_[i].word = (slots_[i].word & ~1u) | bit(*pinned);
      }
    }
    return pinned.value_or(natural);
  }

  /// Record that a queued request has been fetched to the device.
  void note_fetched(std::uint64_t lba, std::uint32_t bytes) {
    if (size_ == 0) return;
    const auto [first, last] = page_range(lba, bytes);
    for (std::uint64_t page = first; page <= last; ++page) {
      const std::size_t i = probe(page);
      std::uint32_t& word = slots_[i].word;
      if (word == 0) continue;
      word -= 2;
      if ((word >> 1) == 0) erase_at(i);
    }
  }

  struct PageState {
    QueueKind kind;
    std::uint32_t count;  ///< queued requests touching the page
  };

  /// The queue and reference count recorded for one page, if any.
  std::optional<PageState> page_state(std::uint64_t page) const {
    if (size_ == 0) return std::nullopt;
    const std::uint32_t word = slots_[probe(page)].word;
    if (word == 0) return std::nullopt;
    return PageState{kind_of(word), word >> 1};
  }

  std::size_t tracked_pages() const { return size_; }

 private:
  // 12-byte slots, 3/4 the size of a padded 16-byte layout; x86-64 and
  // AArch64 load the 4-aligned key without penalty.
#pragma pack(push, 4)
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t word = 0;  ///< (count << 1) | kind; 0 = empty
  };
#pragma pack(pop)
  static_assert(sizeof(Slot) == 12);

  static QueueKind kind_of(std::uint32_t word) {
    return static_cast<QueueKind>(word & 1u);
  }
  static std::uint32_t bit(QueueKind kind) {
    return static_cast<std::uint32_t>(kind);
  }

  std::pair<std::uint64_t, std::uint64_t> page_range(std::uint64_t lba,
                                                     std::uint32_t bytes) const {
    const std::uint64_t first = lba / page_bytes_;
    const std::uint64_t last = (lba + (bytes == 0 ? 0 : bytes - 1)) / page_bytes_;
    return {first, last};
  }

  /// Fibonacci hashing: page numbers are near-sequential, and the golden-
  /// ratio multiply spreads them over the high bits.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Index of `key`'s slot, or of the empty slot ending its probe chain.
  std::size_t probe(std::uint64_t key) const {
    std::size_t i = home(key);
    while (slots_[i].word != 0 && slots_[i].key != key) i = (i + 1) & mask_;
    return i;
  }

  /// Grow until `extra` more pages fit at no more than 3/4 load.
  void reserve(std::uint64_t extra) {
    std::size_t cap = slots_.size();
    if ((size_ + extra) * 4 <= cap * 3) return;
    if (cap == 0) cap = 64;
    while ((size_ + extra) * 4 > cap * 3) cap *= 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    shift_ = static_cast<unsigned>(64 - std::countr_zero(cap));
    for (const Slot& s : old) {
      if (s.word != 0) slots_[probe(s.key)] = s;
    }
  }

  /// Backward-shift deletion: pull every later entry of the probe chain
  /// whose home allows it into the hole, so no tombstones are needed.
  void erase_at(std::size_t hole) {
    --size_;
    slots_[hole].word = 0;
    for (std::size_t j = (hole + 1) & mask_; slots_[j].word != 0;
         j = (j + 1) & mask_) {
      const std::size_t h = home(slots_[j].key);
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        slots_[j].word = 0;
        hole = j;
      }
    }
  }

  std::uint64_t page_bytes_;
  std::vector<Slot> slots_;
  std::vector<std::size_t> fresh_;  ///< route() scratch, reused
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace src::nvme
