// Cached Mapping Table (CMT): an LRU cache over logical-page mapping
// entries. A miss costs one mapping-page flash read in the device model —
// the mechanism through which the paper's CMT-size parameter (Table II)
// affects throughput.
//
// The LRU list is index-linked inside one node arena, and the index maps
// a page to its node: a hit relinks two nodes, and a miss on a full cache
// reuses the evicted node, so nothing is allocated once the arena is warm.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/flat_map.hpp"

namespace src::ssd {

class CachedMappingTable {
 public:
  explicit CachedMappingTable(std::uint64_t capacity_entries)
      : capacity_(capacity_entries == 0 ? 1 : capacity_entries) {}

  /// Touch the mapping entry for a logical page. Returns true on hit;
  /// on a miss the entry is installed (evicting LRU if full).
  bool access(std::uint64_t logical_page) {
    if (const std::uint32_t* node = index_.find(logical_page)) {
      if (*node != head_) {
        unlink(*node);
        push_front(*node);
      }
      ++hits_;
      return true;
    }
    ++misses_;
    std::uint32_t node;
    if (nodes_.size() >= capacity_) {
      node = tail_;
      unlink(node);
      index_.erase(nodes_[node].page);
      nodes_[node].page = logical_page;
    } else {
      node = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{logical_page, kNil, kNil});
    }
    push_front(node);
    index_[logical_page] = node;
    return false;
  }

  std::uint64_t capacity() const { return capacity_; }
  std::size_t size() const { return nodes_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  double hit_ratio() const {
    const auto total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }

 private:
  static constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();

  struct Node {
    std::uint64_t page;
    std::uint32_t prev;  ///< towards the MRU end
    std::uint32_t next;  ///< towards the LRU end
  };

  void unlink(std::uint32_t n) {
    const Node& node = nodes_[n];
    (node.prev == kNil ? head_ : nodes_[node.prev].next) = node.next;
    (node.next == kNil ? tail_ : nodes_[node.next].prev) = node.prev;
  }

  void push_front(std::uint32_t n) {
    nodes_[n].prev = kNil;
    nodes_[n].next = head_;
    (head_ == kNil ? tail_ : nodes_[head_].prev) = n;
    head_ = n;
  }

  std::uint64_t capacity_;
  std::vector<Node> nodes_;                 ///< the LRU list, linked by index
  common::FlatMap64<std::uint32_t> index_;  ///< page -> node
  std::uint32_t head_ = kNil;               ///< most recently used
  std::uint32_t tail_ = kNil;               ///< least recently used
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace src::ssd
