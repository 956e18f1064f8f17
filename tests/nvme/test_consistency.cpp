#include "nvme/consistency.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"

namespace src::nvme {
namespace {

using common::IoType;

constexpr QueueKind kRsq = QueueKind::kReadQueue;
constexpr QueueKind kWsq = QueueKind::kWriteQueue;

TEST(ConsistencyTest, NaturalQueueMapping) {
  EXPECT_EQ(natural_queue(IoType::kRead), kRsq);
  EXPECT_EQ(natural_queue(IoType::kWrite), kWsq);
}

TEST(ConsistencyTest, NoOverlapInitially) {
  ConsistencyTracker tracker(4096);
  EXPECT_FALSE(tracker.page_state(0).has_value());
  EXPECT_EQ(tracker.route(0, 4096, kWsq), kWsq);
}

TEST(ConsistencyTest, ExactOverlapDetected) {
  ConsistencyTracker tracker(4096);
  EXPECT_EQ(tracker.route(0, 4096, kRsq), kRsq);
  EXPECT_EQ(tracker.route(0, 4096, kWsq), kRsq);
  const auto state = tracker.page_state(0);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->kind, kRsq);
  EXPECT_EQ(state->count, 2u);
}

TEST(ConsistencyTest, PartialOverlapDetected) {
  ConsistencyTracker tracker(4096);
  tracker.route(0, 8192, kWsq);                          // pages 0,1
  EXPECT_EQ(tracker.route(4096, 4096, kRsq), kWsq);      // page 1
}

TEST(ConsistencyTest, AdjacentPagesDoNotOverlap) {
  ConsistencyTracker tracker(4096);
  tracker.route(0, 4096, kRsq);  // page 0 only
  EXPECT_EQ(tracker.route(4096, 4096, kWsq), kWsq);
  EXPECT_EQ(tracker.tracked_pages(), 2u);
}

TEST(ConsistencyTest, FetchClearsTracking) {
  ConsistencyTracker tracker(4096);
  tracker.route(0, 4096, kRsq);
  tracker.note_fetched(0, 4096);
  EXPECT_FALSE(tracker.page_state(0).has_value());
  EXPECT_EQ(tracker.tracked_pages(), 0u);
}

TEST(ConsistencyTest, RefCountSurvivesPartialFetch) {
  ConsistencyTracker tracker(4096);
  tracker.route(0, 4096, kWsq);
  tracker.route(0, 4096, kWsq);
  tracker.note_fetched(0, 4096);
  // One request still queued on page 0.
  ASSERT_TRUE(tracker.page_state(0).has_value());
  EXPECT_EQ(tracker.page_state(0)->count, 1u);
  tracker.note_fetched(0, 4096);
  EXPECT_FALSE(tracker.page_state(0).has_value());
}

TEST(ConsistencyTest, FetchOfUntrackedRangeIsSafe) {
  ConsistencyTracker tracker(4096);
  tracker.note_fetched(1 << 20, 4096);  // no-op on an empty tracker
  tracker.route(0, 4096, kRsq);
  tracker.note_fetched(1 << 20, 4096);  // no-op on a populated one
  EXPECT_EQ(tracker.tracked_pages(), 1u);
}

TEST(ConsistencyTest, ZeroByteRequestTouchesOnePage) {
  ConsistencyTracker tracker(4096);
  tracker.route(8192, 0, kRsq);
  EXPECT_EQ(tracker.tracked_pages(), 1u);
  EXPECT_EQ(tracker.route(8192, 1, kWsq), kRsq);
}

TEST(ConsistencyTest, FirstHitDecidesAndOverwritesEveryPage) {
  ConsistencyTracker tracker(4096);
  tracker.route(2 * 4096, 4096, kRsq);  // page 2 in RSQ
  tracker.route(5 * 4096, 4096, kWsq);  // page 5 in WSQ
  // Pages 0..7: the first queued page in LBA order is 2 (RSQ), so the
  // whole request goes to RSQ and page 5 is re-pinned there.
  EXPECT_EQ(tracker.route(0, 8 * 4096, kWsq), kRsq);
  for (std::uint64_t page = 0; page < 8; ++page) {
    ASSERT_TRUE(tracker.page_state(page).has_value()) << page;
    EXPECT_EQ(tracker.page_state(page)->kind, kRsq) << page;
  }
  EXPECT_EQ(tracker.page_state(5)->count, 2u);
}

TEST(ConsistencyTest, RedirectAcrossGrowthRepinsFreshPages) {
  // 59 fresh pages precede the hit; every one of them must end up in the
  // hit's queue, not in the request's natural queue.
  ConsistencyTracker tracker(4096);
  tracker.route(100 * 4096, 4096, kWsq);
  EXPECT_EQ(tracker.route(41 * 4096, 60 * 4096, kRsq), kWsq);
  for (std::uint64_t page = 41; page <= 100; ++page) {
    ASSERT_TRUE(tracker.page_state(page).has_value()) << page;
    EXPECT_EQ(tracker.page_state(page)->kind, kWsq) << page;
  }
  EXPECT_EQ(tracker.tracked_pages(), 60u);
}

TEST(ConsistencyTest, PageKeysAboveTwoToThe32AreDistinct) {
  ConsistencyTracker tracker(4096);
  const std::uint64_t high = (std::uint64_t{1} << 32) + 7;
  tracker.route(high * 4096, 4096, kWsq);
  EXPECT_FALSE(tracker.page_state(7).has_value());
  EXPECT_EQ(tracker.route(7 * 4096, 4096, kRsq), kRsq);
  EXPECT_EQ(tracker.route(high * 4096, 4096, kRsq), kWsq);
}

TEST(ConsistencyTest, DrainedChunksAreRecycled) {
  // 10k sparse single-page requests, one per chunk, with page keys above
  // 2^32: each allocates a chunk, and fetching it empties that chunk.
  constexpr std::uint64_t kPage = 4096;
  constexpr std::uint64_t kRequests = 10'000;
  const std::uint64_t base = std::uint64_t{1} << 33;
  const auto lba = [&](std::uint64_t i) {
    return (base + i * ConsistencyTracker::kChunkPages + i % 7) * kPage;
  };
  ConsistencyTracker tracker(kPage);
  // Rounds 0 and 1 are identical; round 2 uses chunks no earlier round
  // touched, so only recycled chunks keep its count flat.
  for (std::uint64_t round = 0; round < 3; ++round) {
    const std::uint64_t shift = round == 2 ? kRequests * kPage * kPage : 0;
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      ASSERT_EQ(tracker.route(lba(i) + shift, kPage, kWsq), kWsq) << i;
    }
    EXPECT_EQ(tracker.tracked_pages(), kRequests);
    EXPECT_EQ(tracker.chunk_count(), kRequests) << "round " << round;
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      tracker.note_fetched(lba(i) + shift, kPage);
    }
    EXPECT_EQ(tracker.tracked_pages(), 0u);
    EXPECT_FALSE(tracker.page_state(base + shift / kPage).has_value());
  }
}

/// Reference model: a page -> (queue, count) map with the routing rule
/// written out directly.
struct ModelTracker {
  std::uint64_t page_bytes;
  std::map<std::uint64_t, ConsistencyTracker::PageState> pages;

  QueueKind route(std::uint64_t lba, std::uint32_t bytes, QueueKind natural) {
    const std::uint64_t first = lba / page_bytes;
    const std::uint64_t last = (lba + (bytes == 0 ? 0 : bytes - 1)) / page_bytes;
    std::optional<QueueKind> pinned;
    for (std::uint64_t page = first; page <= last && !pinned; ++page) {
      if (const auto it = pages.find(page); it != pages.end()) pinned = it->second.kind;
    }
    const QueueKind kind = pinned.value_or(natural);
    for (std::uint64_t page = first; page <= last; ++page) {
      auto& state = pages.try_emplace(page, ConsistencyTracker::PageState{kind, 0})
                        .first->second;
      state.kind = kind;
      ++state.count;
    }
    return kind;
  }

  void note_fetched(std::uint64_t lba, std::uint32_t bytes) {
    const std::uint64_t first = lba / page_bytes;
    const std::uint64_t last = (lba + (bytes == 0 ? 0 : bytes - 1)) / page_bytes;
    for (std::uint64_t page = first; page <= last; ++page) {
      const auto it = pages.find(page);
      if (it != pages.end() && --it->second.count == 0) pages.erase(it);
    }
  }
};

void expect_page_matches(const ConsistencyTracker& tracker,
                         const ModelTracker& model, std::uint64_t page) {
  const auto got = tracker.page_state(page);
  const auto it = model.pages.find(page);
  if (it == model.pages.end()) {
    EXPECT_FALSE(got.has_value()) << "page " << page;
    return;
  }
  ASSERT_TRUE(got.has_value()) << "page " << page;
  EXPECT_EQ(got->kind, it->second.kind) << "page " << page;
  EXPECT_EQ(got->count, it->second.count) << "page " << page;
}

TEST(ConsistencyTest, MatchesReferenceModelUnderRandomInterleavings) {
  constexpr std::uint64_t kPage = 4096;
  // Three clusters of page numbers, one straddling 2^32 and one far above
  // it, so keys that agree in their low 32 bits must stay distinct.
  const std::uint64_t bases[] = {0, (std::uint64_t{1} << 32) - 40,
                                 (std::uint64_t{1} << 44) + 3};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    common::Rng rng(seed);
    ConsistencyTracker tracker(kPage);
    ModelTracker model{kPage, {}};
    struct Queued {
      std::uint64_t lba;
      std::uint32_t bytes;
    };
    std::vector<Queued> queued;
    for (int op = 0; op < 1500; ++op) {
      // Submit-heavy at first, so the table grows through several sizes,
      // then balanced, so it also drains and refills.
      const double submit_p = op < 600 ? 0.8 : 0.5;
      if (queued.empty() || rng.bernoulli(submit_p)) {
        const std::uint64_t base = bases[rng.uniform_index(3)];
        const std::uint64_t page = base + rng.uniform_index(160);
        const std::uint64_t lba = page * kPage + rng.uniform_index(kPage);
        std::uint32_t bytes;
        const double shape = rng.uniform();
        if (shape < 0.05) {
          bytes = 0;
        } else if (shape < 0.7) {
          bytes = static_cast<std::uint32_t>(1 + rng.uniform_index(2 * kPage));
        } else {
          // Large requests (up to 48 pages) span many queued pages of both
          // queues and force growth in the middle of one request.
          bytes = static_cast<std::uint32_t>(1 + rng.uniform_index(48 * kPage));
        }
        const QueueKind natural = rng.bernoulli(0.5) ? kRsq : kWsq;
        ASSERT_EQ(tracker.route(lba, bytes, natural),
                  model.route(lba, bytes, natural))
            << "seed " << seed << " op " << op;
        queued.push_back({lba, bytes});
        const std::uint64_t first = lba / kPage;
        const std::uint64_t last = (lba + (bytes == 0 ? 0 : bytes - 1)) / kPage;
        for (std::uint64_t p = first; p <= last; ++p) {
          expect_page_matches(tracker, model, p);
        }
      } else {
        const std::size_t victim = rng.uniform_index(queued.size());
        const Queued q = queued[victim];
        queued[victim] = queued.back();
        queued.pop_back();
        tracker.note_fetched(q.lba, q.bytes);
        model.note_fetched(q.lba, q.bytes);
      }
      ASSERT_EQ(tracker.tracked_pages(), model.pages.size())
          << "seed " << seed << " op " << op;
      if (op % 100 == 99) {
        for (const auto& [page, state] : model.pages) {
          expect_page_matches(tracker, model, page);
        }
      }
      if (::testing::Test::HasFailure()) return;
    }
    // Drain: fetching everything leaves nothing tracked.
    for (const Queued& q : queued) {
      tracker.note_fetched(q.lba, q.bytes);
      model.note_fetched(q.lba, q.bytes);
    }
    EXPECT_EQ(tracker.tracked_pages(), 0u);
    EXPECT_TRUE(model.pages.empty());
  }
}

}  // namespace
}  // namespace src::nvme
