// Open-addressed hash map from 64-bit keys to small trivially-movable
// values, built for the per-packet demux maps on the simulator hot path
// (flow lookup by (dst, channel) and by flow id, receiver-side message
// reassembly and CNP pacing state).
//
// Design points, in order of importance:
//  - No iteration API at all: simulation code must never depend on hash
//    layout (determinism rule R2), so the structure does not offer it.
//  - One contiguous slot array with linear probing: a lookup is one hash,
//    one cache line in the common case, no per-node allocation.
//  - Backward-shift deletion instead of tombstones, so long-lived maps
//    (message reassembly) never degrade.
//  - Power-of-two capacity, grown at 3/4 load; a fresh map does not
//    allocate until the first insert.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace src::common {

template <typename Value>
class FlatMap64 {
 public:
  FlatMap64() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pointer to the mapped value, or nullptr when absent.
  Value* find(std::uint64_t key) {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (!used_[i]) return nullptr;
      if (slots_[i].key == key) return &slots_[i].value;
    }
  }
  const Value* find(std::uint64_t key) const {
    return const_cast<FlatMap64*>(this)->find(key);
  }

  /// Value for `key`, default-constructed and inserted when absent.
  Value& operator[](std::uint64_t key) {
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) grow();
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (!used_[i]) {
        used_[i] = 1;
        ++size_;
        slots_[i].key = key;
        slots_[i].value = Value{};
        return slots_[i].value;
      }
      if (slots_[i].key == key) return slots_[i].value;
    }
  }

  /// Insert or overwrite.
  void insert_or_assign(std::uint64_t key, Value value) {
    (*this)[key] = std::move(value);
  }

  /// Remove `key`; returns false when it was absent.
  bool erase(std::uint64_t key) {
    if (slots_.empty()) return false;
    std::size_t hole = home(key);
    for (;; hole = (hole + 1) & mask_) {
      if (!used_[hole]) return false;
      if (slots_[hole].key == key) break;
    }
    used_[hole] = 0;
    --size_;
    // Backward-shift: walk the probe chain after the hole and pull back
    // every entry whose home position means it could legally occupy it.
    for (std::size_t j = (hole + 1) & mask_; used_[j]; j = (j + 1) & mask_) {
      const std::size_t h = home(slots_[j].key);
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        used_[hole] = 1;
        used_[j] = 0;
        hole = j;
      }
    }
    return true;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    Value value{};
  };

  /// splitmix64 finalizer: full-avalanche mix of the key (flow keys and
  /// flow ids are near-sequential, so identity hashing would cluster).
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>(mix(key)) & mask_;
  }

  void grow() {
    const std::size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    slots_.assign(cap, Slot{});
    used_.assign(cap, 0);
    mask_ = cap - 1;
    size_ = 0;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (old_used[i]) (*this)[old_slots[i].key] = std::move(old_slots[i].value);
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace src::common
