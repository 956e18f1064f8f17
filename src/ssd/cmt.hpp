// Cached Mapping Table (CMT): an LRU cache over logical-page mapping
// entries. A miss costs one mapping-page flash read in the device model —
// the mechanism through which the paper's CMT-size parameter (Table II)
// affects throughput.
#pragma once

#include <cstdint>
#include <list>

#include "common/flat_map.hpp"

namespace src::ssd {

class CachedMappingTable {
 public:
  explicit CachedMappingTable(std::uint64_t capacity_entries)
      : capacity_(capacity_entries == 0 ? 1 : capacity_entries) {}

  /// Touch the mapping entry for a logical page. Returns true on hit;
  /// on a miss the entry is installed (evicting LRU if full).
  bool access(std::uint64_t logical_page) {
    if (const auto* node = index_.find(logical_page)) {
      lru_.splice(lru_.begin(), lru_, *node);
      ++hits_;
      return true;
    }
    ++misses_;
    if (lru_.size() >= capacity_) {
      index_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(logical_page);
    index_[logical_page] = lru_.begin();
    return false;
  }

  std::uint64_t capacity() const { return capacity_; }
  std::size_t size() const { return lru_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  double hit_ratio() const {
    const auto total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }

 private:
  std::uint64_t capacity_;
  std::list<std::uint64_t> lru_;
  common::FlatMap64<std::list<std::uint64_t>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace src::ssd
