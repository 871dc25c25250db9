// Tests for the tagged-word helpers and the announcement-based tag-wrap
// protection (paper §6, second ABA optimization).
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "flock/flock.hpp"

namespace {

TEST(Tagged, PackUnpackRoundTrip) {
  uint64_t p = flock::pack_tagged(0x1234, 0xABCDEF012345ull);
  EXPECT_EQ(flock::tag_of(p), 0x1234u);
  EXPECT_EQ(flock::val_of(p), 0xABCDEF012345ull);
}

TEST(Tagged, ValueMaskIs48Bits) {
  uint64_t p = flock::pack_tagged(1, flock::kValMask);
  EXPECT_EQ(flock::val_of(p), flock::kValMask);
  EXPECT_EQ(flock::tag_of(p), 1u);
}

TEST(Tagged, BitCastHelpers) {
  int x = 0;
  uint64_t b = flock::to_bits48(&x);
  EXPECT_EQ(flock::from_bits48<int*>(b), &x);
  EXPECT_EQ(flock::from_bits48<bool>(flock::to_bits48(true)), true);
  EXPECT_EQ(flock::from_bits48<bool>(flock::to_bits48(false)), false);
}

TEST(Tagged, NextTagIncrementsFastPath) {
  int loc = 0;
  uint64_t p = flock::pack_tagged(5, 0);
  EXPECT_EQ(flock::detail::next_tag(&loc, p), 6u);
}

TEST(Tagged, NextTagWrapsSkippingZero) {
  int loc = 0;
  uint64_t p = flock::pack_tagged(flock::kTagLimit - 1, 0);
  EXPECT_EQ(flock::detail::next_tag(&loc, p), 1u);
}

TEST(Tagged, WrapSkipsAnnouncedTags) {
  int loc = 0;
  // Announce tags 1 and 2 for this location from this thread's slot by
  // nesting guards (each guard uses the same slot; use two threads to hold
  // two distinct announcements).
  std::atomic<bool> hold{true}, ready1{false}, ready2{false};
  std::thread t1([&] {
    flock::detail::announce_guard g(&loc, flock::pack_tagged(1, 0));
    ready1.store(true);
    while (hold.load()) {
    }
  });
  std::thread t2([&] {
    flock::detail::announce_guard g(&loc, flock::pack_tagged(2, 0));
    ready2.store(true);
    while (hold.load()) {
    }
  });
  while (!ready1.load() || !ready2.load()) {
  }
  uint64_t p = flock::pack_tagged(flock::kTagLimit - 1, 0);
  uint64_t t = flock::detail::next_tag(&loc, p);
  EXPECT_NE(t, 0u);
  EXPECT_NE(t, 1u);
  EXPECT_NE(t, 2u);
  hold.store(false);
  t1.join();
  t2.join();
}

TEST(Tagged, WrapIgnoresOtherLocations) {
  int loc = 0, other = 0;
  std::atomic<bool> hold{true}, ready{false};
  std::thread t1([&] {
    flock::detail::announce_guard g(&other, flock::pack_tagged(1, 0));
    ready.store(true);
    while (hold.load()) {
    }
  });
  while (!ready.load()) {
  }
  uint64_t p = flock::pack_tagged(flock::kTagLimit - 1, 0);
  EXPECT_EQ(flock::detail::next_tag(&loc, p), 1u);
  hold.store(false);
  t1.join();
}

TEST(Tagged, AnnounceGuardClearsSlot) {
  int loc = 0;
  {
    flock::detail::announce_guard g(&loc, flock::pack_tagged(3, 0));
  }
  // After the guard, a wrap scan finds nothing for &loc.
  uint64_t p = flock::pack_tagged(flock::kTagLimit - 1, 0);
  EXPECT_EQ(flock::detail::next_tag(&loc, p), 1u);
}

// Drive a compact mutable through full tag wrap-around under concurrent
// replays and verify value integrity (the tag is only 16 bits, so 65536+
// stores wrap it multiple times).
TEST(Tagged, CompactMutableSurvivesTagWrap) {
  flock::mutable_<uint64_t> m(0);
  for (uint64_t i = 1; i <= 3 * flock::kTagLimit; i++) {
    m.store(i & 0xFFFF);
    ASSERT_EQ(m.read_raw(), i & 0xFFFF);
  }
  uint64_t tag = flock::tag_of(m.read_raw_packed());
  EXPECT_GT(tag, 0u);
  EXPECT_LT(tag, flock::kTagLimit);
}

// The log stores packed words as-is and reads 0 as an empty slot, so no
// store path may produce tag 0, even across wrap-around.
TEST(Tagged, TagWrapNeverProducesTagZero) {
  flock::mutable_<uint64_t> m(0);
  for (uint64_t i = 1; i <= 2 * flock::kTagLimit + 2; i++) {
    if (i % 2 == 0)
      m.store(0);
    else
      m.store_raw(0);  // the blocking-mode store bumps the tag too
    ASSERT_NE(flock::tag_of(m.read_raw_packed()), 0u) << "store " << i;
  }
}

}  // namespace
