// Service tier (src/service/): closed-loop calls on the caller's thread,
// their per-thread accounting, and the double-read façade over a live
// rebalance window, in both lock modes.
//
// The window tests pin down the two halves of the façade contract: reads
// never miss a key that is split across the two stores mid-migration,
// and window writes never leave a key resident on both sides (an insert
// of a key already moved to the target reports "present", and the
// primary only shrinks, so a drained pass means an empty primary).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "flock/flock.hpp"
#include "service/service.hpp"
#include "store/sharded_map.hpp"
#include "workload/zipf.hpp"

namespace {

using map_t = flock_store::sharded_map<uint64_t, uint64_t, false>;
using svc_t = flock_service::service<uint64_t, uint64_t, false>;

template <class F>
void spin_until(F&& pred) {
  while (!pred()) std::this_thread::yield();
}

// Loop budgeted migration passes until one reports nothing pending.
// `after_pass` runs after every pass, the last one included, and returns
// whether writers may still be running. The loop ends only on a pass
// that began after it last returned false, so that pass follows every
// write; the first pass therefore never ends it.
template <class F>
void drain_window(svc_t& svc, std::size_t budget, F&& after_pass) {
  for (bool quiet = false;;) {
    const auto rep = svc.rebalance_step(budget);
    const bool done = quiet && rep.moved == 0 && rep.exhausted == 0 &&
                      !rep.budget_spent;
    quiet = !after_pass();
    if (done) return;
  }
}

void drain_window(svc_t& svc, std::size_t budget) {
  drain_window(svc, budget, [] { return false; });
}

// --- deployment knobs (flock/config.hpp svc_tunables) -----------------------

TEST(SvcTunables, ParseFromStringsAndDefaults) {
  EXPECT_EQ(flock::svc_tunables_from("8").clients, 8u);
  EXPECT_EQ(flock::svc_tunables_from(nullptr).clients, 2u);  // absent env
}

TEST(SvcTunables, ClampsHostileValues) {
  // Garbage parses as 0 and clamps up to a runnable closed loop.
  EXPECT_EQ(flock::svc_tunables_from("garbage").clients, 1u);
  EXPECT_EQ(flock::svc_tunables_from("0").clients, 1u);
  // Huge and negative (strtoul wraps) both clamp to the thread-count cap.
  EXPECT_EQ(flock::svc_tunables_from("4000000000").clients, 256u);
  EXPECT_EQ(flock::svc_tunables_from("-1").clients, 256u);
}

TEST(SvcTunables, ReadsTheRealEnvironmentNames) {
  // Guards the literal env name: a typo here would silently disable the
  // knob (same contract as Backoff.TunablesReadEnvironment).
  ::setenv("FLOCK_SVC_CLIENTS", "5", 1);
  auto t = flock::svc_tunables_from_env();
  ::unsetenv("FLOCK_SVC_CLIENTS");
  EXPECT_EQ(t.clients, 5u);
}

// --- service: both lock modes ----------------------------------------------

class ServiceTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { flock::set_blocking(GetParam()); }
  void TearDown() override {
    flock::set_blocking(false);
    flock::epoch_manager::instance().flush();
  }
};

TEST_P(ServiceTest, ClosedLoopOpsRunInline) {
  map_t m(4);
  svc_t svc(m);
  EXPECT_TRUE(svc.insert(7, 70));
  EXPECT_FALSE(svc.insert(7, 71));  // duplicate reports not-inserted
  EXPECT_EQ(svc.find(7), std::optional<uint64_t>(70));
  EXPECT_EQ(svc.find(8), std::nullopt);
  EXPECT_TRUE(svc.remove(7));
  EXPECT_FALSE(svc.remove(7));
  EXPECT_EQ(svc.find(7), std::nullopt);
  // The closed-loop writes land in the underlying store.
  EXPECT_TRUE(svc.insert(9, 90));
  EXPECT_EQ(m.find(9), std::optional<uint64_t>(90));
  EXPECT_TRUE(m.check_invariants());
}

TEST_P(ServiceTest, CountersAccountSingleThreaded) {
  const flock::stats_snapshot before = flock::stats();
  map_t m(2);
  svc_t svc(m);
  for (uint64_t k = 0; k < 10; k++) EXPECT_TRUE(svc.insert(k, k));
  for (uint64_t k = 0; k < 10; k++) EXPECT_TRUE(svc.find(k).has_value());
  EXPECT_TRUE(svc.remove(0));
  const flock::stats_snapshot after = flock::stats();
  // Every call counts once in this thread's own cell, as a batch of 1,
  // so the accounting is exact; no ring exists to reject or queue.
  EXPECT_EQ(after.svc_batch_ops - before.svc_batch_ops, 21u);
  EXPECT_EQ(after.svc_batches - before.svc_batches, 21u);
  EXPECT_EQ(after.svc_ring_full, 0u);
  EXPECT_EQ(after.svc_depth_hw, 0u);
}

// Four closed-loop clients on ONE service, real threads. Every call must
// be counted exactly once, and the store must end at prefill + inserts
// - removes as the clients observed them.
TEST_P(ServiceTest, FourClientsAccountEveryOpExactlyOnce) {
  constexpr int kClients = 4;
  constexpr int kOps = 4000;
  constexpr uint64_t kKeys = 256;
  auto value_of = [](uint64_t k) { return k * 7 + 1; };
  map_t m(2);  // few shards: clients collide on buckets
  svc_t svc(m);
  uint64_t prefill = 0;
  for (uint64_t k = 0; k < kKeys; k += 2) prefill += m.insert(k, value_of(k));
  const flock::stats_snapshot before = flock::stats();
  std::atomic<uint64_t> ins{0}, rem{0}, bad{0};
  std::atomic<int> ready{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kClients; t++) {
    ts.emplace_back([&, t] {
      flock_workload::rng64 rng(0x9e37 + t);
      uint64_t my_ins = 0, my_rem = 0, my_bad = 0;
      ready.fetch_add(1);
      spin_until([&] { return ready.load() == kClients; });
      for (int i = 0; i < kOps; i++) {
        const uint64_t k = rng.next() % kKeys;
        const uint64_t o = rng.next() % 10;
        if (o < 4) {
          const std::optional<uint64_t> f = svc.find(k);
          if (f.has_value() && *f != value_of(k)) my_bad++;
        } else if (o < 7) {
          my_ins += svc.insert(k, value_of(k));
        } else {
          my_rem += svc.remove(k);
        }
      }
      ins.fetch_add(my_ins);
      rem.fetch_add(my_rem);
      bad.fetch_add(my_bad);
    });
  }
  for (auto& th : ts) th.join();
  const flock::stats_snapshot after = flock::stats();
  constexpr uint64_t kTotal = uint64_t{kClients} * kOps;
  EXPECT_EQ(after.svc_batch_ops - before.svc_batch_ops, kTotal);
  EXPECT_EQ(after.svc_batches - before.svc_batches, kTotal);
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(m.size(), prefill + ins.load() - rem.load());
  EXPECT_TRUE(m.check_invariants());
}

TEST_P(ServiceTest, DoubleReadFacadeHidesLiveRebalanceWindow) {
  map_t src(2), dst(4);
  svc_t svc(src);
  std::set<uint64_t> live;
  for (uint64_t k = 0; k < 96; k++) {
    ASSERT_TRUE(svc.insert(k, k * 10));
    live.insert(k);
  }
  svc.begin_rebalance(dst);
  // An explicit pipeline move: the key leaves the primary, yet the
  // service read still serves it through the source-first fallback.
  ASSERT_TRUE(svc.move_to_target(5));
  EXPECT_FALSE(src.find(5).has_value());  // gone from the primary...
  EXPECT_EQ(svc.find(5), std::optional<uint64_t>(50));  // ...not the façade
  // Window-aware removes reach whichever store holds the key.
  EXPECT_TRUE(svc.remove(5));
  EXPECT_FALSE(svc.find(5).has_value());
  EXPECT_FALSE(dst.find(5).has_value());
  live.erase(5);
  ASSERT_TRUE(svc.remove(77));  // and a primary-resident remove still works
  live.erase(77);
  // Drive the migration in small budgeted passes; after EVERY pass the
  // whole key set must be visible through the façade even though it is
  // split across the two stores mid-window.
  drain_window(svc, 8, [&] {
    for (uint64_t k : live)
      EXPECT_EQ(svc.find(k), std::optional<uint64_t>(k * 10));
    return false;
  });
  svc.end_rebalance();
  for (uint64_t k : live) {
    EXPECT_FALSE(src.find(k).has_value());  // primary fully drained
    EXPECT_EQ(dst.find(k), std::optional<uint64_t>(k * 10));
  }
  EXPECT_TRUE(src.check_invariants());
  EXPECT_TRUE(dst.check_invariants());
}

TEST_P(ServiceTest, ConcurrentReadersNeverMissDuringRebalance) {
  map_t src(2), dst(4);
  svc_t svc(src);
  constexpr uint64_t kKeys = 128;
  for (uint64_t k = 0; k < kKeys; k++) ASSERT_TRUE(svc.insert(k, k + 1));
  svc.begin_rebalance(dst);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> misses{0};
  std::thread reader([&svc, &stop, &misses] {
    while (!stop.load(std::memory_order_acquire)) {
      for (uint64_t k = 0; k < kKeys; k++) {
        const auto r = svc.find(k);
        if (!r.has_value() || *r != k + 1)
          misses.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  drain_window(svc, 4, [] {
    std::this_thread::yield();  // let the reader overlap the window
    return false;
  });
  // The window stays armed until the reader stops: end_rebalance before
  // the last reads would re-expose the drained primary.
  stop.store(true, std::memory_order_release);
  reader.join();
  svc.end_rebalance();
  EXPECT_EQ(misses.load(), 0u);
  for (uint64_t k = 0; k < kKeys; k++)
    EXPECT_EQ(dst.find(k), std::optional<uint64_t>(k + 1));
}

// Regression: a window insert of a key the rebalancer already moved used
// to go to the primary unchecked, so it was acknowledged although the
// key was resident in the target, and the key then lived on both sides.
TEST_P(ServiceTest, WindowInsertOfMovedKeyReportsPresent) {
  map_t src(2), dst(4);
  svc_t svc(src);
  ASSERT_TRUE(svc.insert(5, 50));
  ASSERT_TRUE(svc.insert(9, 90));
  svc.begin_rebalance(dst);
  ASSERT_TRUE(svc.move_to_target(5));
  EXPECT_FALSE(svc.insert(5, 51));  // resident in the target
  EXPECT_EQ(svc.find(5), std::optional<uint64_t>(50));
  EXPECT_FALSE(src.find(5).has_value());
  EXPECT_FALSE(svc.insert(9, 91));  // resident in the primary
  EXPECT_TRUE(svc.insert(6, 60));   // a fresh key lands in the target
  EXPECT_FALSE(src.find(6).has_value());
  EXPECT_EQ(dst.find(6), std::optional<uint64_t>(60));
  drain_window(svc, 8);
  EXPECT_EQ(src.size(), 0u);  // drained means empty
  svc.end_rebalance();
  EXPECT_EQ(dst.find(5), std::optional<uint64_t>(50));
  EXPECT_EQ(dst.find(6), std::optional<uint64_t>(60));
  EXPECT_EQ(dst.find(9), std::optional<uint64_t>(90));
  EXPECT_EQ(dst.size(), 3u);
  EXPECT_TRUE(src.check_invariants());
  EXPECT_TRUE(dst.check_invariants());
}

// Two writers insert and remove disjoint key ranges through the service
// while a rebalancer steps the window and a reader probes it. Each writer
// is the only one touching its keys, so it knows what every call must
// return; after the window drains, the primary is empty and the target
// holds exactly the keys the writers left resident, plus the untouched
// prefill the reader kept finding.
TEST_P(ServiceTest, WindowWritersRebalancerAndReaderLeaveExactSet) {
  constexpr int kWriters = 2;
  constexpr uint64_t kWriterKeys = 128;                 // per writer
  constexpr uint64_t kStable = kWriters * kWriterKeys;  // first untouched
  constexpr uint64_t kKeys = kStable + 64;
  constexpr int kOps = 5000;
  auto value_of = [](uint64_t k) { return k * 10 + 1; };
  map_t src(2), dst(4);
  svc_t svc(src);
  std::set<uint64_t> expect[kWriters];
  for (uint64_t k = 0; k < kKeys; k += 2) {
    ASSERT_TRUE(svc.insert(k, value_of(k)));
    if (k < kStable) expect[k / kWriterKeys].insert(k);
  }
  svc.begin_rebalance(dst);  // writes quiesced: no writer started yet
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> wrong{0}, misses{0};
  std::thread reader([&] {
    // mo: acquire — pairs with the release store that ends the run.
    while (!stop.load(std::memory_order_acquire)) {
      for (uint64_t k = 0; k < kKeys; k++) {
        const std::optional<uint64_t> r = svc.find(k);
        if (r.has_value() && *r != value_of(k)) wrong.fetch_add(1);
        if (k >= kStable && k % 2 == 0 && !r.has_value()) misses.fetch_add(1);
      }
    }
  });
  // Writers start only once the rebalancer has moved a first batch, so
  // their calls overlap a window that is really split.
  std::atomic<bool> stepped{false};
  std::atomic<int> done{0};
  std::thread rebalancer([&] {
    drain_window(svc, 4, [&] {
      stepped.store(true);
      std::this_thread::yield();
      return done.load() < kWriters;
    });
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      flock_workload::rng64 rng(0x51ed + w);
      spin_until([&] { return stepped.load(); });
      std::set<uint64_t>& mine = expect[w];
      for (int i = 0; i < kOps; i++) {
        const uint64_t k = w * kWriterKeys + rng.next() % kWriterKeys;
        const bool resident = mine.count(k) != 0;
        if (rng.next() % 2 == 0) {
          if (svc.insert(k, value_of(k)) == resident) wrong.fetch_add(1);
          mine.insert(k);
        } else {
          if (svc.remove(k) != resident) wrong.fetch_add(1);
          mine.erase(k);
        }
      }
    });
  }
  for (auto& th : writers) {
    th.join();
    done.fetch_add(1);
  }
  rebalancer.join();
  // mo: release — ends the reader's loop.
  stop.store(true, std::memory_order_release);
  reader.join();
  svc.end_rebalance();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(misses.load(), 0u);
  EXPECT_EQ(src.size(), 0u);
  std::size_t want = 0;
  for (uint64_t k = 0; k < kKeys; k++) {
    const bool resident =
        k < kStable ? expect[k / kWriterKeys].count(k) != 0 : k % 2 == 0;
    want += resident;
    EXPECT_EQ(dst.find(k),
              resident ? std::optional<uint64_t>(value_of(k)) : std::nullopt)
        << "key " << k;
  }
  EXPECT_EQ(dst.size(), want);
  EXPECT_TRUE(src.check_invariants());
  EXPECT_TRUE(dst.check_invariants());
}

// Four clients insert and remove a SHARED key range through an open
// window while a rebalancer steps it. A remove that hit the primary must
// not go on to the target: between the two, another client's insert of
// the same key lands in the target (the primary no longer holds it), and
// a second remove there would delete that acknowledged insert. The keys
// are few and the rounds short, so clients meet on keys that are still
// in the primary; after each drain the target must hold exactly prefill
// + acknowledged inserts - acknowledged removes.
TEST_P(ServiceTest, WindowClientsOnSharedKeysAccountEveryWrite) {
  constexpr int kClients = 4;
  constexpr uint64_t kKeys = 8;
  constexpr int kOps = 64;
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; round++) {
    map_t src(2), dst(4);
    svc_t svc(src);
    for (uint64_t k = 0; k < kKeys; k++) ASSERT_TRUE(svc.insert(k, k));
    svc.begin_rebalance(dst);  // writes quiesced: no client started yet
    std::atomic<int> ready{0}, done{0};
    std::atomic<int64_t> net{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < kClients; t++) {
      ts.emplace_back([&, t] {
        flock_workload::rng64 rng(uint64_t(round) * kClients + t + 1);
        int64_t my = 0;
        ready.fetch_add(1);
        spin_until([&] { return ready.load() == kClients + 1; });
        for (int i = 0; i < kOps; i++) {
          const uint64_t k = rng.next() % kKeys;
          if (rng.next() % 2 == 0) {
            my += svc.insert(k, k);
          } else {
            my -= svc.remove(k);
          }
        }
        net.fetch_add(my);
        done.fetch_add(1);
      });
    }
    ready.fetch_add(1);  // this thread is the rebalancer
    spin_until([&] { return ready.load() == kClients + 1; });
    drain_window(svc, 1, [&] {
      std::this_thread::yield();
      return done.load() < kClients;
    });
    for (auto& th : ts) th.join();
    svc.end_rebalance();
    ASSERT_EQ(src.size(), 0u) << "round " << round;
    ASSERT_EQ(int64_t(dst.size()), int64_t(kKeys) + net.load())
        << "round " << round;
    ASSERT_TRUE(dst.check_invariants());
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ServiceTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& i) {
                           return i.param ? "blocking" : "lockfree";
                         });

}  // namespace
