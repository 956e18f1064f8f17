#include "ssd/cmt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <vector>

#include "common/rng.hpp"

namespace src::ssd {
namespace {

TEST(CmtTest, FirstAccessIsMiss) {
  CachedMappingTable cmt(4);
  EXPECT_FALSE(cmt.access(1));
  EXPECT_EQ(cmt.misses(), 1u);
  EXPECT_EQ(cmt.hits(), 0u);
}

TEST(CmtTest, RepeatAccessIsHit) {
  CachedMappingTable cmt(4);
  cmt.access(1);
  EXPECT_TRUE(cmt.access(1));
  EXPECT_EQ(cmt.hits(), 1u);
}

TEST(CmtTest, EvictsLeastRecentlyUsed) {
  CachedMappingTable cmt(2);
  cmt.access(1);
  cmt.access(2);
  cmt.access(1);      // 1 is now MRU
  cmt.access(3);      // evicts 2
  EXPECT_TRUE(cmt.access(1));
  EXPECT_TRUE(cmt.access(3));
  EXPECT_FALSE(cmt.access(2));  // was evicted
}

TEST(CmtTest, CapacityRespected) {
  CachedMappingTable cmt(8);
  for (std::uint64_t p = 0; p < 100; ++p) cmt.access(p);
  EXPECT_EQ(cmt.size(), 8u);
}

TEST(CmtTest, ZeroCapacityClampsToOne) {
  CachedMappingTable cmt(0);
  EXPECT_EQ(cmt.capacity(), 1u);
  cmt.access(1);
  EXPECT_TRUE(cmt.access(1));
  cmt.access(2);
  EXPECT_FALSE(cmt.access(1));
}

TEST(CmtTest, HitRatio) {
  CachedMappingTable cmt(16);
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t p = 0; p < 8; ++p) cmt.access(p);
  }
  // 8 misses, 24 hits.
  EXPECT_DOUBLE_EQ(cmt.hit_ratio(), 24.0 / 32.0);
}

TEST(CmtTest, SequentialScanLargerThanCapacityAlwaysMisses) {
  CachedMappingTable cmt(4);
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t p = 0; p < 16; ++p) EXPECT_FALSE(cmt.access(p));
  }
}

/// Reference LRU: a std::list from MRU (front) to LRU (back).
struct ListLru {
  std::size_t capacity;
  std::list<std::uint64_t> order;

  bool access(std::uint64_t page) {
    const auto it = std::find(order.begin(), order.end(), page);
    if (it != order.end()) {
      order.splice(order.begin(), order, it);
      return true;
    }
    if (order.size() >= capacity) order.pop_back();
    order.push_front(page);
    return false;
  }
};

TEST(CmtTest, MatchesListReferenceUnderRandomAccess) {
  constexpr std::uint64_t kCapacity = 64;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    common::Rng rng(seed);
    CachedMappingTable cmt(kCapacity);
    ListLru model{kCapacity, {}};
    for (int op = 0; op < 5000; ++op) {
      const std::uint64_t page = rng.uniform_index(3 * kCapacity);
      ASSERT_EQ(cmt.access(page), model.access(page)) << "seed " << seed << " op " << op;
      ASSERT_EQ(cmt.size(), model.order.size()) << "seed " << seed << " op " << op;
    }
    // Eviction order: a fresh page evicts the model's LRU page, and
    // re-touching each evicted page in turn evicts the next one, so every
    // access of the chain misses only if the victims come in LRU order.
    std::vector<std::uint64_t> lru_first(model.order.rbegin(), model.order.rend());
    EXPECT_FALSE(cmt.access(3 * kCapacity));
    model.access(3 * kCapacity);
    for (const std::uint64_t page : lru_first) {
      EXPECT_FALSE(cmt.access(page)) << "seed " << seed << " page " << page;
      EXPECT_FALSE(model.access(page));
    }
    EXPECT_EQ(cmt.hits() + cmt.misses(), 5000u + 1 + kCapacity);
  }
}

}  // namespace
}  // namespace src::ssd
