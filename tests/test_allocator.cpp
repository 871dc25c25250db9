// Tests for the per-thread slab pools.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "flock/flock.hpp"

namespace {

struct payload {
  uint64_t a, b, c;
  payload(uint64_t x, uint64_t y, uint64_t z) : a(x), b(y), c(z) {}
};

TEST(Allocator, ConstructsAndRecycles) {
  long long base = flock::pool_outstanding<payload>();
  payload* p = flock::pool_new<payload>(1, 2, 3);
  EXPECT_EQ(p->a, 1u);
  EXPECT_EQ(p->c, 3u);
  EXPECT_EQ(flock::pool_outstanding<payload>(), base + 1);
  flock::pool_delete(p);
  EXPECT_EQ(flock::pool_outstanding<payload>(), base);
  // Immediately reallocating from the same thread reuses the hot slot.
  payload* q = flock::pool_new<payload>(4, 5, 6);
  EXPECT_EQ(q, p);
  flock::pool_delete(q);
}

TEST(Allocator, ArrayNewRecordsLengthAndBalances) {
  long long base = flock::arrays_outstanding();
  struct elt {
    uint64_t v = 7;  // default ctor must run for every element
  };
  elt* a = flock::array_new<elt>(1000);
  EXPECT_EQ(flock::array_length(a), 1000u);
  EXPECT_EQ(flock::arrays_outstanding(), base + 1);
  for (std::size_t i = 0; i < 1000; i++) EXPECT_EQ(a[i].v, 7u);
  flock::array_delete(a);
  EXPECT_EQ(flock::arrays_outstanding(), base);
}

TEST(Allocator, ArrayEpochRetireRunsElementDtors) {
  static std::atomic<int> dtors{0};
  struct counted {
    ~counted() { dtors.fetch_add(1); }
  };
  long long base = flock::arrays_outstanding();
  counted* a = flock::array_new<counted>(64);
  flock::with_epoch([&] { flock::epoch_retire_array(a); });
  flock::epoch_manager::instance().flush();
  EXPECT_EQ(dtors.load(), 64);
  EXPECT_EQ(flock::arrays_outstanding(), base);
}

// Arrays of at least one huge page are huge-page aligned (so their whole
// 2 MiB pages can be THP-backed) and must still round-trip through both
// deleters with the length-derived alignment; an injected failure at that
// size still returns null.
TEST(Allocator, HugeArrayIsHugePageAlignedAndBalances) {
  constexpr std::size_t kHuge = flock::detail::kHugePage;
  constexpr std::size_t n = kHuge / sizeof(uint64_t) + 3;
  const long long base = flock::arrays_outstanding();
  uint64_t* a = flock::array_new<uint64_t>(n);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(flock::array_length(a), n);
  if (flock::detail::kHugeArrays) {
    const uintptr_t block = reinterpret_cast<uintptr_t>(a) -
                            flock::detail::array_layout<uint64_t>::kHeader;
    EXPECT_EQ(block % kHuge, 0u);
  }
  for (std::size_t i = 0; i < n; i++) ASSERT_EQ(a[i], 0u);
  EXPECT_EQ(flock::arrays_outstanding(), base + 1);
  flock::array_delete(a);
  EXPECT_EQ(flock::arrays_outstanding(), base);

  uint64_t* b = flock::array_new<uint64_t>(n);
  ASSERT_NE(b, nullptr);
  flock::with_epoch([&] { flock::epoch_retire_array(b); });
  flock::epoch_manager::instance().flush();
  EXPECT_EQ(flock::arrays_outstanding(), base);

  const uint64_t f0 = flock::alloc_failures();
  ASSERT_TRUE(flock_chaos::arm("alloc.array", flock_chaos::fault::alloc_fail));
  EXPECT_EQ(flock::array_new<uint64_t>(n), nullptr);
  flock_chaos::reset();
  EXPECT_EQ(flock::alloc_failures(), f0 + 1);
  EXPECT_EQ(flock::arrays_outstanding(), base);
}

TEST(Allocator, DistinctLiveObjects) {
  std::set<payload*> live;
  for (int i = 0; i < 1000; i++)
    live.insert(flock::pool_new<payload>(i, i, i));
  EXPECT_EQ(live.size(), 1000u);
  for (payload* p : live) flock::pool_delete(p);
}

TEST(Allocator, DtorRuns) {
  static std::atomic<int> dtors{0};
  struct counted {
    ~counted() { dtors.fetch_add(1); }
  };
  counted* c = flock::pool_new<counted>();
  flock::pool_delete(c);
  EXPECT_EQ(dtors.load(), 1);
}

TEST(Allocator, CrossThreadFreeIsAllowed) {
  // Helpers retire other threads' nodes; the pool must tolerate frees from
  // a different thread than the allocator.
  constexpr int kRounds = 5000;
  std::vector<payload*> ptrs(kRounds);
  for (int i = 0; i < kRounds; i++)
    ptrs[i] = flock::pool_new<payload>(i, 0, 0);
  std::thread([&] {
    for (payload* p : ptrs) flock::pool_delete(p);
  }).join();
  // Net outstanding is zero again (alloc on main, free on other).
  EXPECT_EQ(flock::pool_outstanding<payload>(), 0);
}

TEST(Allocator, ParallelChurn) {
  constexpr int kThreads = 8;
  constexpr int kOps = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&] {
      std::vector<payload*> mine;
      for (int i = 0; i < kOps; i++) {
        mine.push_back(flock::pool_new<payload>(i, i, i));
        if (mine.size() > 64) {
          flock::pool_delete(mine.back());
          mine.pop_back();
          flock::pool_delete(mine.front());
          mine.erase(mine.begin());
        }
      }
      for (payload* p : mine) flock::pool_delete(p);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(flock::pool_outstanding<payload>(), 0);
}

TEST(Allocator, ShuffleKeepsAccounting) {
  long long base = flock::pool_outstanding<payload>();
  flock::pool_shuffle<payload>(512);
  EXPECT_EQ(flock::pool_outstanding<payload>(), base);
}

}  // namespace
