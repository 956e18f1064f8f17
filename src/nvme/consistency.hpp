// LBA consistency tracker for the separate-submission-queue mechanism
// (paper §III-A): when a new request touches a logical page that an
// already-queued request also touches, the new request must be routed to
// the same submission queue so that dependent I/O executes in submission
// order. Tracking is page-granular.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

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
  explicit ConsistencyTracker(std::uint64_t page_bytes)
      : page_bytes_(page_bytes == 0 ? 1 : page_bytes) {}

  /// Returns the queue an overlapping queued request lives in, if any.
  /// Invariant maintained by `note_queued`: all queued requests overlapping
  /// a page are in the same queue, so the first hit decides.
  std::optional<QueueKind> overlapping_queue(std::uint64_t lba,
                                             std::uint32_t bytes) const {
    const auto [first, last] = page_range(lba, bytes);
    for (std::uint64_t page = first; page <= last; ++page) {
      if (const PendingPage* pending = pages_.find(page)) return pending->kind;
    }
    return std::nullopt;
  }

  /// Record that a request has been enqueued into `kind`.
  void note_queued(std::uint64_t lba, std::uint32_t bytes, QueueKind kind) {
    const auto [first, last] = page_range(lba, bytes);
    for (std::uint64_t page = first; page <= last; ++page) {
      auto& entry = pages_[page];
      entry.kind = kind;  // invariant: matches any existing entry
      ++entry.count;
    }
  }

  /// Record that a queued request has been fetched to the device.
  void note_fetched(std::uint64_t lba, std::uint32_t bytes) {
    const auto [first, last] = page_range(lba, bytes);
    for (std::uint64_t page = first; page <= last; ++page) {
      PendingPage* pending = pages_.find(page);
      if (pending == nullptr) continue;
      if (--pending->count == 0) pages_.erase(page);
    }
  }

  std::size_t tracked_pages() const { return pages_.size(); }

 private:
  struct PendingPage {
    QueueKind kind = QueueKind::kReadQueue;
    std::uint32_t count = 0;
  };

  std::pair<std::uint64_t, std::uint64_t> page_range(std::uint64_t lba,
                                                     std::uint32_t bytes) const {
    const std::uint64_t first = lba / page_bytes_;
    const std::uint64_t last = (lba + (bytes == 0 ? 0 : bytes - 1)) / page_bytes_;
    return {first, last};
  }

  std::uint64_t page_bytes_;
  common::FlatMap64<PendingPage> pages_;
};

}  // namespace src::nvme
