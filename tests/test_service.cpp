// Service tier (src/service/): the bounded MPSC request ring, the
// flat-combining batch executor, the double-read rebalance façade, and
// the chaos windows of the enqueue -> drain -> complete pipeline.
//
// The ring tests drive the Vyukov sequence-number protocol through its
// edges directly (wraparound, full/empty, slot reuse across thousands of
// laps on a capacity-4 ring — the wrapped-index ABA shape 64-bit
// sequences design out). The service tests run both deployment shapes
// (client combining with zero servers, and a dedicated server thread)
// in both lock modes. The chaos tests park a thread at each pipeline
// window and assert the exactly-once completion story: a killed combiner
// still owns its popped batch and publishes every completion exactly
// once when released; a killed client's already-pushed request is
// completed by whoever drains next.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "chaos/faultpoint.hpp"
#include "flock/flock.hpp"
#include "service/service.hpp"
#include "store/sharded_map.hpp"
#include "workload/zipf.hpp"

namespace {

namespace chaos = flock_chaos;
using flock_service::completion;
using flock_service::op_kind;
using flock_service::ring_queue;
using map_t = flock_store::sharded_map<uint64_t, uint64_t, false>;
using svc_t = flock_service::service<uint64_t, uint64_t, false>;
using req_t = svc_t::request_t;

template <class F>
void spin_until(F&& pred) {
  while (!pred()) std::this_thread::yield();
}

// The first key >= `from` that routes to ring `ri` (rings are per shard).
uint64_t key_in_ring(const svc_t& svc, std::size_t ri, uint64_t from) {
  while (svc.ring_of(from) != ri) from++;
  return from;
}

// --- ring_queue -------------------------------------------------------------

TEST(RingQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ring_queue<uint64_t>(0).capacity(), 2u);
  EXPECT_EQ(ring_queue<uint64_t>(1).capacity(), 2u);
  EXPECT_EQ(ring_queue<uint64_t>(3).capacity(), 4u);
  EXPECT_EQ(ring_queue<uint64_t>(4).capacity(), 4u);
  EXPECT_EQ(ring_queue<uint64_t>(1000).capacity(), 1024u);
}

TEST(RingQueue, FullAndEmptyEdges) {
  ring_queue<uint64_t> q(4);
  uint64_t out[8];
  EXPECT_EQ(q.pop_up_to(out, 8), 0u);  // empty from the start
  for (uint64_t i = 0; i < 4; i++) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));  // full: non-blocking reject
  EXPECT_FALSE(q.try_push(99));  // still full, still clean
  EXPECT_EQ(q.pop_up_to(out, 1), 1u);
  EXPECT_EQ(out[0], 0u);
  EXPECT_TRUE(q.try_push(4));    // one slot freed, one push fits
  EXPECT_FALSE(q.try_push(99));  // and exactly one
  EXPECT_EQ(q.pop_up_to(out, 8), 4u);
  for (uint64_t i = 0; i < 4; i++) EXPECT_EQ(out[i], i + 1);
  EXPECT_EQ(q.pop_up_to(out, 8), 0u);  // drained dry
}

TEST(RingQueue, BatchDrainPreservesFifoOrder) {
  ring_queue<uint64_t> q(16);
  for (uint64_t i = 0; i < 10; i++) ASSERT_TRUE(q.try_push(i));
  uint64_t out[4];
  ASSERT_EQ(q.pop_up_to(out, 4), 4u);
  for (uint64_t i = 0; i < 4; i++) EXPECT_EQ(out[i], i);
  ASSERT_EQ(q.pop_up_to(out, 4), 4u);
  for (uint64_t i = 0; i < 4; i++) EXPECT_EQ(out[i], i + 4);
  ASSERT_EQ(q.pop_up_to(out, 4), 2u);  // partial tail batch
  EXPECT_EQ(out[0], 8u);
  EXPECT_EQ(out[1], 9u);
}

TEST(RingQueue, SpscWraparoundManyLaps) {
  // Capacity-8 ring pushed 4000 items through: every slot is reused 500
  // times, and FIFO order must survive every lap boundary.
  ring_queue<uint64_t> q(8);
  std::thread producer([&q] {
    for (uint64_t i = 0; i < 4000; i++)
      while (!q.try_push(i)) std::this_thread::yield();
  });
  uint64_t expect = 0;
  uint64_t out[8];
  while (expect < 4000) {
    std::size_t got = q.pop_up_to(out, 8);
    for (std::size_t i = 0; i < got; i++) EXPECT_EQ(out[i], expect++);
    if (got == 0) std::this_thread::yield();
  }
  producer.join();
}

TEST(RingQueue, MpscSlotReuseAtCapacityPreservesPerProducerOrder) {
  // The sequence-number ABA shape: a CAPACITY-4 ring, two producers, and
  // thousands of laps, so the same four slots are claimed, published,
  // consumed, and reclaimed over and over under contention. If a stale
  // lap could ever masquerade as a fresh one (the wrapped-index ABA the
  // 64-bit per-slot sequences exist to prevent), items would be lost,
  // duplicated, or reordered within a producer.
  constexpr uint64_t kPerProducer = 2000;
  ring_queue<uint64_t> q(4);
  auto produce = [&q](uint64_t tag) {
    for (uint64_t i = 0; i < kPerProducer; i++)
      while (!q.try_push((tag << 32) | i)) std::this_thread::yield();
  };
  std::thread p1(produce, 1), p2(produce, 2);
  uint64_t next_from[3] = {0, 0, 0};
  uint64_t total = 0;
  uint64_t out[4];
  while (total < 2 * kPerProducer) {
    std::size_t got = q.pop_up_to(out, 4);
    for (std::size_t i = 0; i < got; i++) {
      const uint64_t tag = out[i] >> 32;
      const uint64_t seq = out[i] & 0xffffffffu;
      ASSERT_TRUE(tag == 1 || tag == 2);
      // Per-producer FIFO: each producer's items arrive in push order.
      EXPECT_EQ(seq, next_from[tag]);
      next_from[tag] = seq + 1;
    }
    total += got;
    if (got == 0) std::this_thread::yield();
  }
  p1.join();
  p2.join();
  EXPECT_EQ(next_from[1], kPerProducer);
  EXPECT_EQ(next_from[2], kPerProducer);
  EXPECT_EQ(q.pop_up_to(out, 4), 0u);  // nothing left behind
}

// --- deployment knobs (flock/config.hpp svc_tunables) -----------------------

TEST(SvcTunables, ParseFromStringsAndDefaults) {
  auto t = flock::svc_tunables_from("8", "2");
  EXPECT_EQ(t.clients, 8u);
  EXPECT_EQ(t.servers, 2u);
  t = flock::svc_tunables_from(nullptr, nullptr);
  EXPECT_EQ(t.clients, 2u);  // defaults survive absent env
  EXPECT_EQ(t.servers, 0u);
}

TEST(SvcTunables, ClampsHostileValues) {
  // Garbage parses as 0: clients clamps up to a runnable closed loop,
  // servers stays 0 (a valid deployment — clients combine).
  auto t = flock::svc_tunables_from("garbage", "junk");
  EXPECT_EQ(t.clients, 1u);
  EXPECT_EQ(t.servers, 0u);
  // Huge and negative (strtoul wraps) both clamp to the thread-count caps.
  t = flock::svc_tunables_from("4000000000", "-1");
  EXPECT_EQ(t.clients, 256u);
  EXPECT_EQ(t.servers, 64u);
  t = flock::svc_tunables_from("0", "0");
  EXPECT_EQ(t.clients, 1u);
  EXPECT_EQ(t.servers, 0u);
}

TEST(SvcTunables, ReadsTheRealEnvironmentNames) {
  // Guards the literal env names: a typo here would silently disable the
  // knob (same contract as Backoff.TunablesReadEnvironment).
  ::setenv("FLOCK_SVC_CLIENTS", "5", 1);
  ::setenv("FLOCK_SVC_SERVERS", "3", 1);
  auto t = flock::svc_tunables_from_env();
  ::unsetenv("FLOCK_SVC_CLIENTS");
  ::unsetenv("FLOCK_SVC_SERVERS");
  EXPECT_EQ(t.clients, 5u);
  EXPECT_EQ(t.servers, 3u);
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

TEST_P(ServiceTest, ClosedLoopOpsThroughClientCombining) {
  map_t m(4);
  svc_t svc(m);
  EXPECT_TRUE(svc.insert(7, 70));
  EXPECT_FALSE(svc.insert(7, 71));  // duplicate reports not-inserted
  EXPECT_EQ(svc.find(7), std::optional<uint64_t>(70));
  EXPECT_EQ(svc.find(8), std::nullopt);
  EXPECT_TRUE(svc.remove(7));
  EXPECT_FALSE(svc.remove(7));
  EXPECT_EQ(svc.find(7), std::nullopt);
  // The pipeline writes land in the underlying store.
  EXPECT_TRUE(svc.insert(9, 90));
  EXPECT_EQ(m.find(9), std::optional<uint64_t>(90));
  EXPECT_TRUE(m.check_invariants());
}

TEST_P(ServiceTest, DedicatedServerDrainsAndCompletes) {
  map_t m(4);
  svc_t svc(m);
  std::atomic<bool> stop{false};
  std::thread server([&svc, &stop] { svc.serve(0, 1, stop); });
  // Raw async submits (no combining by the submitter), so the server is
  // the only consumer: its drain loop must execute and publish.
  for (uint64_t k = 0; k < 32; k++) {
    completion<uint64_t> c;
    c.arm();
    req_t r{op_kind::insert, k, k * 10, &c};
    while (!svc.try_submit(r)) std::this_thread::yield();
    c.wait();
    EXPECT_TRUE(c.ok);
  }
  completion<uint64_t> c;
  c.arm();
  req_t r{op_kind::find, 5, 0, &c};
  while (!svc.try_submit(r)) std::this_thread::yield();
  c.wait();
  EXPECT_TRUE(c.ok);
  EXPECT_EQ(c.value, 50u);
  // mo: release — pairs with serve()'s acquire poll; the final sweep
  // sees every push ordered before this store.
  stop.store(true, std::memory_order_release);
  server.join();
  EXPECT_EQ(m.approx_size(), 32u);
}

TEST_P(ServiceTest, CountersAndHistogramsAccountSingleThreaded) {
  const flock::stats_snapshot before = flock::stats();
  map_t m(2);
  svc_t svc(m);
  for (uint64_t k = 0; k < 10; k++) EXPECT_TRUE(svc.insert(k, k));
  for (uint64_t k = 0; k < 10; k++) EXPECT_TRUE(svc.find(k).has_value());
  const flock::stats_snapshot mid = flock::stats();
  // Single-threaded closed loop: every op finds its combiner free and
  // runs inline as its own batch of 1, so the accounting is exact.
  EXPECT_EQ(mid.svc_batch_ops - before.svc_batch_ops, 20u);
  EXPECT_EQ(mid.svc_batches - before.svc_batches, 20u);
  EXPECT_GE(mid.svc_batch_max, 1u);
  EXPECT_EQ(mid.svc_ring_full, before.svc_ring_full);
  // Per-service histograms: 20 one-element batches (bucket 1 holds the
  // value 1), and depth is sampled by the combiner at drain time — every
  // inline pass found its ring empty (bucket 0).
  EXPECT_EQ(svc.batch_histogram().count(1), 20u);
  EXPECT_EQ(svc.depth_histogram().count(0), 20u);
  // Queued path: two async submits to one ring, then one drain. The pass
  // sees depth 2 and runs a batch of 2 (bucket 2 holds [2, 4)).
  const std::size_t ri = svc.ring_of(100);
  completion<uint64_t> c1, c2;
  c1.arm();
  c2.arm();
  ASSERT_TRUE(svc.try_submit({op_kind::insert, 100, 1, &c1}));
  const uint64_t k2 = key_in_ring(svc, ri, 101);
  ASSERT_TRUE(svc.try_submit({op_kind::insert, k2, 2, &c2}));
  EXPECT_EQ(svc.drain(ri), 2u);
  EXPECT_TRUE(c1.ready() && c2.ready());
  const flock::stats_snapshot after = flock::stats();
  EXPECT_EQ(after.svc_batches - mid.svc_batches, 1u);
  EXPECT_EQ(after.svc_batch_ops - mid.svc_batch_ops, 2u);
  EXPECT_GE(after.svc_batch_max, 2u);
  EXPECT_GE(after.svc_depth_hw, 2u);
  EXPECT_EQ(svc.batch_histogram().count(2), 1u);
  EXPECT_EQ(svc.depth_histogram().count(2), 1u);
  EXPECT_EQ(svc.depth_histogram().count(0), 20u);
}

TEST_P(ServiceTest, DegenerateBatchOneRunsInline) {
  // max_batch == 1 turns combining off: the closed-loop helpers execute
  // inline (no ring round trip, no batch accounting) so "no batching"
  // costs what a direct call costs — but the async submit path still
  // flows through the ring and still drains one op per pass.
  const flock::stats_snapshot before = flock::stats();
  map_t m(2);
  svc_t::options o;
  o.max_batch = 1;
  svc_t svc(m, o);
  EXPECT_TRUE(svc.insert(1, 10));
  EXPECT_EQ(svc.find(1), std::optional<uint64_t>(10));
  EXPECT_TRUE(svc.remove(1));
  EXPECT_EQ(svc.find(1), std::nullopt);
  const flock::stats_snapshot mid = flock::stats();
  EXPECT_EQ(mid.svc_batches, before.svc_batches);  // inline: never drained
  EXPECT_EQ(mid.svc_batch_ops, before.svc_batch_ops);
  // The façade still applies inline: a key moved out of the primary
  // mid-window is served through the source-first fallback.
  map_t dst(2);
  ASSERT_TRUE(svc.insert(2, 20));
  svc.begin_rebalance(dst);
  ASSERT_TRUE(svc.move_to_target(2));
  EXPECT_EQ(svc.find(2), std::optional<uint64_t>(20));
  EXPECT_TRUE(svc.remove(2));
  svc.end_rebalance();
  // Async submits keep using the ring even at max_batch 1.
  completion<uint64_t> c;
  c.arm();
  req_t r{op_kind::insert, 3, 30, &c};
  EXPECT_TRUE(svc.try_submit(r));
  EXPECT_EQ(svc.drain(svc.ring_of(3)), 1u);
  EXPECT_TRUE(c.ready());
  EXPECT_TRUE(c.ok);
  EXPECT_EQ(flock::stats().svc_batches, mid.svc_batches + 1);
  EXPECT_TRUE(m.check_invariants());
}

TEST_P(ServiceTest, RingFullIsRetryableBackpressure) {
  const flock::stats_snapshot before = flock::stats();
  map_t m(2);
  svc_t::options o;
  o.ring_capacity = 2;
  svc_t svc(m, o);
  // Three keys of one shard, so all three requests target one ring.
  const std::size_t ri = svc.ring_of(1);
  const uint64_t k2 = key_in_ring(svc, ri, 2);
  const uint64_t k3 = key_in_ring(svc, ri, k2 + 1);
  completion<uint64_t> c1, c2, c3;
  c1.arm();
  c2.arm();
  c3.arm();
  req_t r1{op_kind::insert, 1, 10, &c1};
  req_t r2{op_kind::insert, k2, 20, &c2};
  req_t r3{op_kind::insert, k3, 30, &c3};
  EXPECT_TRUE(svc.try_submit(r1));
  EXPECT_TRUE(svc.try_submit(r2));
  EXPECT_FALSE(svc.try_submit(r3));  // full: rejected, counted, retryable
  const flock::stats_snapshot mid = flock::stats();
  EXPECT_GE(mid.svc_ring_full - before.svc_ring_full, 1u);
  EXPECT_EQ(svc.drain(ri), 2u);  // both queued requests execute
  EXPECT_TRUE(c1.ready());
  EXPECT_TRUE(c2.ready());
  EXPECT_FALSE(c3.ready());        // the rejected one was never enqueued
  EXPECT_TRUE(svc.try_submit(r3));  // the retry fits now
  EXPECT_EQ(svc.drain(ri), 1u);
  EXPECT_TRUE(c3.ready());
  EXPECT_TRUE(c3.ok);
  EXPECT_EQ(m.approx_size(), 3u);
  // The drained pair crossed max-batch accounting too.
  EXPECT_GE(flock::stats().svc_batch_max, 2u);
}

// Four closed-loop clients on ONE service, real threads: every request
// must execute exactly once whichever path it took (inline or queued),
// and the accounting must add up exactly. Publications are counted at
// the svc.exec.pre_complete faultpoint, armed with a fault that never
// fires (victim-only, no victim), so its hit count is the number of
// publish() calls. Every op owns a fresh completion slot: 4N publishes
// over 4N slots, all of them ready, means exactly one publish per slot.
TEST_P(ServiceTest, FourClientsAccountEveryOpExactlyOnce) {
  constexpr int kClients = 4;
  constexpr int kOps = 4000;
  constexpr uint64_t kKeys = 256;
  auto value_of = [](uint64_t k) { return k * 7 + 1; };
  map_t m(2);  // few shards: clients collide on rings
  svc_t svc(m);
  uint64_t prefill = 0;
  for (uint64_t k = 0; k < kKeys; k += 2) prefill += m.insert(k, value_of(k));
  uint64_t inserted = 0, removed = 0;
  bool queued_seen = false, inline_seen = false;
  // Repeat rounds (bounded) until both paths were observed; each round
  // checks the full accounting on its own.
  for (int round = 0; round < 20 && !(queued_seen && inline_seen); round++) {
    chaos::reset();
    chaos::arm_options never;
    never.victim_only = true;
    ASSERT_TRUE(
        chaos::arm("svc.exec.pre_complete", chaos::fault::stall, never));
    ASSERT_TRUE(chaos::arm("svc.drain.post_pop", chaos::fault::stall, never));
    const flock::stats_snapshot before = flock::stats();
    const flock_service::histogram batch0 = svc.batch_histogram();
    const flock_service::histogram depth0 = svc.depth_histogram();
    std::vector<std::vector<completion<uint64_t>>> slots(kClients);
    std::atomic<uint64_t> ins{0}, rem{0}, bad{0};
    std::atomic<int> ready{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < kClients; t++) {
      slots[t] = std::vector<completion<uint64_t>>(kOps);
      ts.emplace_back([&, t] {
        flock_workload::rng64 rng(0x9e37 + 131 * round + t);
        uint64_t my_ins = 0, my_rem = 0, my_bad = 0;
        ready.fetch_add(1);
        spin_until([&] { return ready.load() == kClients; });
        for (int i = 0; i < kOps; i++) {
          const uint64_t k = rng.next() % kKeys;
          const uint64_t o = rng.next() % 10;
          completion<uint64_t>& c = slots[t][i];
          if (o < 4) {
            svc.execute({op_kind::find, k, 0, &c});
            if (c.ok && c.value != value_of(k)) my_bad++;
          } else if (o < 7) {
            svc.execute({op_kind::insert, k, value_of(k), &c});
            my_ins += c.ok;
          } else {
            svc.execute({op_kind::remove, k, 0, &c});
            my_rem += c.ok;
          }
          if (!c.ready()) my_bad++;
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
    EXPECT_EQ(chaos::hits("svc.exec.pre_complete"), kTotal);
    EXPECT_EQ(bad.load(), 0u);
    for (const auto& v : slots)
      for (const auto& c : v) ASSERT_TRUE(c.ready());
    inserted += ins.load();
    removed += rem.load();
    EXPECT_EQ(m.size(), prefill + inserted - removed);
    // Queued path: some pass popped a batch and either saw a queue behind
    // it or popped more than one request. Inline path: some pass found
    // its ring empty, so it ran only its caller's own request.
    const flock_service::histogram batch1 = svc.batch_histogram();
    const flock_service::histogram depth1 = svc.depth_histogram();
    uint64_t deep = 0, multi = 0;
    for (int b = 1; b < flock_service::histogram::kBuckets; b++)
      deep += depth1.count(b) - depth0.count(b);
    for (int b = 2; b < flock_service::histogram::kBuckets; b++)
      multi += batch1.count(b) - batch0.count(b);
    if (chaos::hits("svc.drain.post_pop") > 0 && (deep > 0 || multi > 0))
      queued_seen = true;
    if (depth1.count(0) > depth0.count(0)) inline_seen = true;
  }
  chaos::reset();
  EXPECT_TRUE(queued_seen);
  EXPECT_TRUE(inline_seen);
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
  while (true) {
    const auto rep = svc.rebalance_step(8);
    for (uint64_t k : live)
      EXPECT_EQ(svc.find(k), std::optional<uint64_t>(k * 10));
    if (rep.moved == 0 && rep.exhausted == 0 && !rep.budget_spent) break;
  }
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
  while (true) {
    const auto rep = svc.rebalance_step(4);
    if (rep.moved == 0 && rep.exhausted == 0 && !rep.budget_spent) break;
    std::this_thread::yield();  // let the reader overlap the window
  }
  // The window stays armed until the reader stops: end_rebalance before
  // the last reads would re-expose the drained primary.
  stop.store(true, std::memory_order_release);
  reader.join();
  svc.end_rebalance();
  EXPECT_EQ(misses.load(), 0u);
  for (uint64_t k = 0; k < kKeys; k++)
    EXPECT_EQ(dst.find(k), std::optional<uint64_t>(k + 1));
}

INSTANTIATE_TEST_SUITE_P(Modes, ServiceTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& i) {
                           return i.param ? "blocking" : "lockfree";
                         });

// --- chaos: the pipeline's three fault windows ------------------------------

class ServiceChaos : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    chaos::reset();
    flock::set_blocking(GetParam());
  }
  void TearDown() override {
    chaos::release_killed();
    spin_until([] { return chaos::parked() == 0; });
    chaos::reset();
    flock::set_blocking(false);
    flock::epoch_manager::instance().flush();
  }
};

// Window 1 of the drain path: the combiner has popped a batch (owning it
// exclusively — the ring slots are already freed) but executed nothing.
// Killing it there must strand nothing: the parked combiner still owns
// the batch, and releasing it completes every request exactly once.
TEST_P(ServiceChaos, ServerKilledAfterPopStillCompletesItsBatchOnce) {
  map_t m(2);
  svc_t svc(m);
  chaos::arm_options o;
  o.victim_only = true;
  ASSERT_TRUE(chaos::arm("svc.drain.post_pop", chaos::fault::kill, o));

  std::atomic<bool> stop{false};
  std::thread server([&svc, &stop] {
    chaos::victim_scope vs;
    svc.serve(0, 1, stop);
  });

  completion<uint64_t> c;
  c.arm();
  req_t r{op_kind::insert, 42, 420, &c};
  while (!svc.try_submit(r)) std::this_thread::yield();
  spin_until([] { return chaos::parked() == 1; });

  // Parked before execution: the work is pending, not lost. (No service
  // calls here — the parked combiner holds the ring's combiner lock.)
  EXPECT_FALSE(c.ready());
  EXPECT_FALSE(m.find(42).has_value());
  EXPECT_GE(chaos::hits("svc.drain.post_pop"), 1u);

  chaos::release_killed();
  c.wait();  // the resumed combiner finishes the batch it owns
  EXPECT_TRUE(c.ok);
  EXPECT_EQ(m.find(42), std::optional<uint64_t>(420));
  // Exactly once: a second insert of the same key reports "already
  // present" — the rescued request was applied a single time.
  EXPECT_FALSE(svc.insert(42, 999));
  EXPECT_EQ(m.find(42), std::optional<uint64_t>(420));

  // mo: release — pairs with serve()'s acquire poll (final-sweep order).
  stop.store(true, std::memory_order_release);
  server.join();
  EXPECT_TRUE(m.check_invariants());
}

// Window 2: the op has EXECUTED but its completion is unpublished — the
// hardest window, where the store already changed and only the waiter is
// blind. The rescued publish must flip the completion exactly once.
TEST_P(ServiceChaos, ServerKilledBeforeCompleteHasDoneTheWork) {
  map_t m(2);
  svc_t svc(m);
  chaos::arm_options o;
  o.victim_only = true;
  ASSERT_TRUE(chaos::arm("svc.exec.pre_complete", chaos::fault::kill, o));

  std::atomic<bool> stop{false};
  std::thread server([&svc, &stop] {
    chaos::victim_scope vs;
    svc.serve(0, 1, stop);
  });

  completion<uint64_t> c;
  c.arm();
  req_t r{op_kind::insert, 7, 70, &c};
  while (!svc.try_submit(r)) std::this_thread::yield();
  spin_until([] { return chaos::parked() == 1; });

  // The store mutation is already durable; only the publication is stuck.
  EXPECT_FALSE(c.ready());
  EXPECT_EQ(m.find(7), std::optional<uint64_t>(70));
  EXPECT_GE(chaos::hits("svc.exec.pre_complete"), 1u);

  chaos::release_killed();
  c.wait();
  EXPECT_TRUE(c.ok);
  // Exactly once: the rescued publish did not re-run the insert.
  EXPECT_FALSE(svc.insert(7, 999));
  EXPECT_EQ(m.find(7), std::optional<uint64_t>(70));

  // mo: release — pairs with serve()'s acquire poll (final-sweep order).
  stop.store(true, std::memory_order_release);
  server.join();
  EXPECT_TRUE(m.check_invariants());
}

// Window 3, the client side: a submitter killed right after its push has
// published a request it will never wait on. The request is already in
// the ring, so any drain completes it — a dead client cannot wedge the
// pipeline, and its completion slot (still alive while parked) fills.
TEST_P(ServiceChaos, ClientKilledAfterPushGetsServedAnyway) {
  map_t m(2);
  svc_t svc(m);
  chaos::arm_options o;
  o.victim_only = true;
  ASSERT_TRUE(chaos::arm("svc.enqueue.post_push", chaos::fault::kill, o));

  completion<uint64_t> c;
  c.arm();
  std::thread client([&svc, &c] {
    chaos::victim_scope vs;
    req_t r{op_kind::insert, 13, 130, &c};
    while (!svc.try_submit(r)) std::this_thread::yield();
  });
  spin_until([] { return chaos::parked() == 1; });
  EXPECT_FALSE(c.ready());
  EXPECT_GE(chaos::hits("svc.enqueue.post_push"), 1u);

  // Another participant (here: the main thread combining) drains the
  // ring and completes the dead client's request.
  EXPECT_EQ(svc.drain(svc.ring_of(13)), 1u);
  EXPECT_TRUE(c.ready());
  EXPECT_TRUE(c.ok);
  EXPECT_EQ(m.find(13), std::optional<uint64_t>(130));

  chaos::release_killed();
  client.join();
  EXPECT_TRUE(m.check_invariants());
}

// The inline fast path crosses the same completion window: a client
// that became the combiner and ran its own op in place is killed before
// publishing. It still holds its ring's combiner lock, so a request
// queued behind it waits (drain cannot take the lock) rather than being
// lost; on release the victim publishes its own result once, and the
// next drain serves the queued request.
TEST_P(ServiceChaos, InlineCombinerKilledBeforeCompletePublishesOnce) {
  map_t m(2);
  svc_t svc(m);
  chaos::arm_options o;
  o.victim_only = true;
  ASSERT_TRUE(chaos::arm("svc.exec.pre_complete", chaos::fault::kill, o));

  std::atomic<int> inserted{-1};
  std::thread client([&svc, &inserted] {
    chaos::victim_scope vs;
    inserted.store(svc.insert(5, 50) ? 1 : 0);
  });
  spin_until([] { return chaos::parked() == 1; });
  EXPECT_GE(chaos::hits("svc.exec.pre_complete"), 1u);
  EXPECT_EQ(m.find(5), std::optional<uint64_t>(50));  // work done
  EXPECT_EQ(inserted.load(), -1);                      // result unpublished

  const std::size_t ri = svc.ring_of(5);
  completion<uint64_t> c;
  c.arm();
  ASSERT_TRUE(svc.try_submit({op_kind::find, 5, 0, &c}));
  EXPECT_EQ(svc.drain(ri), 0u);  // the parked combiner still holds the lock
  EXPECT_FALSE(c.ready());

  chaos::release_killed();
  client.join();
  EXPECT_EQ(inserted.load(), 1);  // published once, as "inserted"
  EXPECT_EQ(svc.drain(ri), 1u);
  EXPECT_TRUE(c.ready());
  EXPECT_TRUE(c.ok);
  EXPECT_EQ(c.value, 50u);
  EXPECT_FALSE(svc.insert(5, 999));  // applied exactly once
  EXPECT_TRUE(m.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(Modes, ServiceChaos, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& i) {
                           return i.param ? "blocking" : "lockfree";
                         });

}  // namespace
