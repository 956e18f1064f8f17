#include "common/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

namespace src::common {
namespace {

TEST(FlatMap64Test, StartsEmpty) {
  FlatMap64<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(0), nullptr);
  EXPECT_EQ(map.find(42), nullptr);
}

TEST(FlatMap64Test, InsertFindErase) {
  FlatMap64<int> map;
  map[7] = 70;
  map[9] = 90;
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.find(7), nullptr);
  EXPECT_EQ(*map.find(7), 70);
  EXPECT_EQ(map.find(8), nullptr);
  EXPECT_TRUE(map.erase(7));
  EXPECT_FALSE(map.erase(7));
  EXPECT_EQ(map.find(7), nullptr);
  ASSERT_NE(map.find(9), nullptr);
  EXPECT_EQ(*map.find(9), 90);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap64Test, ZeroIsAnOrdinaryKey) {
  // Flow key (dst=0, channel=0) is 0, so key 0 must not be a sentinel.
  FlatMap64<int> map;
  map[0] = 123;
  ASSERT_NE(map.find(0), nullptr);
  EXPECT_EQ(*map.find(0), 123);
  EXPECT_TRUE(map.erase(0));
  EXPECT_EQ(map.find(0), nullptr);
}

TEST(FlatMap64Test, SubscriptDefaultConstructsOnce) {
  FlatMap64<std::uint64_t> map;
  EXPECT_EQ(map[5], 0u);
  map[5] += 10;
  map[5] += 10;
  EXPECT_EQ(map[5], 20u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap64Test, InsertOrAssignOverwrites) {
  FlatMap64<int> map;
  map.insert_or_assign(3, 1);
  map.insert_or_assign(3, 2);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.find(3), 2);
}

TEST(FlatMap64Test, GrowthPreservesAllEntries) {
  FlatMap64<std::uint64_t> map;
  constexpr std::uint64_t kN = 10'000;  // forces many doublings past cap 16
  for (std::uint64_t k = 0; k < kN; ++k) map[k * 1'000'003] = k;
  EXPECT_EQ(map.size(), kN);
  for (std::uint64_t k = 0; k < kN; ++k) {
    ASSERT_NE(map.find(k * 1'000'003), nullptr);
    EXPECT_EQ(*map.find(k * 1'000'003), k);
  }
}

TEST(FlatMap64Test, BackwardShiftEraseKeepsProbeChainsIntact) {
  // Near-sequential keys (the real workload: flow keys and ids) create
  // probe chains; erase from the middle of chains repeatedly and verify
  // against std::map as the oracle.
  FlatMap64<std::uint64_t> map;
  std::map<std::uint64_t, std::uint64_t> oracle;
  std::uint64_t state = 42;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int step = 0; step < 50'000; ++step) {
    const std::uint64_t key = next() % 512;  // small space -> heavy reuse
    switch (next() % 3) {
      case 0:
        map[key] = static_cast<std::uint64_t>(step);
        oracle[key] = static_cast<std::uint64_t>(step);
        break;
      case 1:
        EXPECT_EQ(map.erase(key), oracle.erase(key) > 0);
        break;
      default: {
        const auto it = oracle.find(key);
        const std::uint64_t* found = map.find(key);
        if (it == oracle.end()) {
          EXPECT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(*found, it->second);
        }
        break;
      }
    }
    EXPECT_EQ(map.size(), oracle.size());
  }
  // Full sweep at the end: every surviving key readable, nothing extra.
  for (const auto& [key, value] : oracle) {
    ASSERT_NE(map.find(key), nullptr);
    EXPECT_EQ(*map.find(key), value);
  }
}

TEST(FlatMap64Test, EraseOnEmptyMapIsSafe) {
  FlatMap64<int> map;
  EXPECT_FALSE(map.erase(1));
  map[1] = 1;
  map.erase(1);
  EXPECT_FALSE(map.erase(1));
  EXPECT_TRUE(map.empty());
}

}  // namespace
}  // namespace src::common
