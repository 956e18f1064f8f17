// LBA consistency tracker for the separate-submission-queue mechanism
// (paper §III-A): when a new request touches a logical page that an
// already-queued request also touches, the new request must be routed to
// the same submission queue so that dependent I/O executes in submission
// order. Tracking is page-granular.
//
// The tracker is the SSQ submit path's hot spot (an overloaded cell keeps
// tens of thousands of pages queued), so its table is a paged page-state
// table rather than a general map:
//  - pages live in fixed-size chunks of kChunkPages u32 words, each word
//    (count << 1) | kind; count 0 means the page is not tracked, so there
//    is no separate occupancy array;
//  - a chunk is found by `page >> kChunkBits` in a small index map, and the
//    last chunk found is cached, so a request's consecutive pages pay one
//    lookup. Nothing is ever rehashed: a page's word never moves;
//  - a chunk whose last tracked page is fetched goes back to a free list
//    and is reused, so a drained tracker holds no live chunk;
//  - page keys are full 64-bit: trace LBAs are not bounded by the device.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace src::nvme {

enum class QueueKind : std::uint8_t { kReadQueue = 0, kWriteQueue = 1 };

constexpr QueueKind natural_queue(common::IoType type) {
  return type == common::IoType::kRead ? QueueKind::kReadQueue
                                       : QueueKind::kWriteQueue;
}

class ConsistencyTracker {
 public:
  static constexpr unsigned kChunkBits = 9;
  static constexpr std::uint64_t kChunkPages = std::uint64_t{1} << kChunkBits;

  explicit ConsistencyTracker(std::uint64_t page_bytes)
      : page_bytes_(page_bytes == 0 ? 1 : page_bytes) {}

  /// Routes a request about to be enqueued and records it as queued. The
  /// queue is the one holding the first page of the range (in LBA order)
  /// that already has a queued request, or `natural` when no page does;
  /// every page of the range is then recorded in that queue (overwriting
  /// the queue of a page it shares with an earlier request).
  QueueKind route(std::uint64_t lba, std::uint32_t bytes, QueueKind natural) {
    const auto [first, last] = page_range(lba, bytes);
    QueueKind kind = natural;
    bool pinned = false;
    for (std::uint64_t key = first >> kChunkBits;
         !pinned && key <= (last >> kChunkBits); ++key) {
      const Chunk* chunk = find(key);
      if (chunk == nullptr) continue;
      const auto [lo, hi] = span(key, first, last);
      for (std::uint64_t i = lo; i <= hi; ++i) {
        if (const std::uint32_t word = chunk->words[i]) {
          kind = kind_of(word);
          pinned = true;
          break;
        }
      }
    }
    for (std::uint64_t key = first >> kChunkBits; key <= (last >> kChunkBits);
         ++key) {
      Chunk& chunk = find_or_add(key);
      const auto [lo, hi] = span(key, first, last);
      for (std::uint64_t i = lo; i <= hi; ++i) {
        std::uint32_t& word = chunk.words[i];
        if (word == 0) {
          ++chunk.live;
          ++size_;
        }
        word = ((word + 2) & ~1u) | bit(kind);
      }
    }
    return kind;
  }

  /// Record that a queued request has been fetched to the device.
  void note_fetched(std::uint64_t lba, std::uint32_t bytes) {
    if (size_ == 0) return;
    const auto [first, last] = page_range(lba, bytes);
    for (std::uint64_t key = first >> kChunkBits; key <= (last >> kChunkBits);
         ++key) {
      Chunk* chunk = find(key);
      if (chunk == nullptr) continue;
      const auto [lo, hi] = span(key, first, last);
      for (std::uint64_t i = lo; i <= hi; ++i) {
        std::uint32_t& word = chunk->words[i];
        if (word == 0) continue;
        word -= 2;
        if ((word >> 1) == 0) {
          word = 0;
          --chunk->live;
          --size_;
        }
      }
      if (chunk->live == 0) release(key);
    }
  }

  struct PageState {
    QueueKind kind;
    std::uint32_t count;  ///< queued requests touching the page
  };

  /// The queue and reference count recorded for one page, if any.
  std::optional<PageState> page_state(std::uint64_t page) const {
    const std::uint32_t* slot = index_.find(page >> kChunkBits);
    if (slot == nullptr) return std::nullopt;
    const std::uint32_t word = chunks_[*slot]->words[page & (kChunkPages - 1)];
    if (word == 0) return std::nullopt;
    return PageState{kind_of(word), word >> 1};
  }

  std::size_t tracked_pages() const { return size_; }

  /// Chunks ever allocated (live plus free-listed): bounded by the peak
  /// number of chunks holding a tracked page at once.
  std::size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::uint32_t live = 0;  ///< tracked pages in this chunk
    std::array<std::uint32_t, kChunkPages> words{};  ///< (count << 1) | kind
  };

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

  /// Word offsets within chunk `key` of the pages in [first, last].
  static std::pair<std::uint64_t, std::uint64_t> span(std::uint64_t key,
                                                      std::uint64_t first,
                                                      std::uint64_t last) {
    constexpr std::uint64_t kMask = kChunkPages - 1;
    const std::uint64_t lo = (first >> kChunkBits) == key ? first & kMask : 0;
    const std::uint64_t hi = (last >> kChunkBits) == key ? last & kMask : kMask;
    return {lo, hi};
  }

  Chunk* find(std::uint64_t key) {
    if (cached_ != nullptr && cached_key_ == key) return cached_;
    const std::uint32_t* slot = index_.find(key);
    if (slot == nullptr) return nullptr;
    cached_key_ = key;
    cached_ = chunks_[*slot].get();
    return cached_;
  }

  Chunk& find_or_add(std::uint64_t key) {
    if (Chunk* chunk = find(key)) return *chunk;
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(chunks_.size());
      chunks_.push_back(std::make_unique<Chunk>());
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    index_[key] = slot;
    cached_key_ = key;
    cached_ = chunks_[slot].get();
    return *cached_;
  }

  /// Return an empty chunk (all words 0) to the free list.
  void release(std::uint64_t key) {
    const std::uint32_t* slot = index_.find(key);
    if (cached_ == chunks_[*slot].get()) cached_ = nullptr;
    free_.push_back(*slot);
    index_.erase(key);
  }

  std::uint64_t page_bytes_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  common::FlatMap64<std::uint32_t> index_;  ///< page >> kChunkBits -> chunk
  std::vector<std::uint32_t> free_;         ///< empty chunks, reused first
  Chunk* cached_ = nullptr;                 ///< the last chunk found
  std::uint64_t cached_key_ = 0;
  std::size_t size_ = 0;
};

}  // namespace src::nvme
