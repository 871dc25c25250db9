// service.hpp — the serving front end over the store tier: closed-loop
// calls that run on the caller's thread, and MPSC request rings with
// flat-combining batch execution for async submitters.
//
// Closed-loop path (find/insert/remove/move_to_target, execute()). The
// calling thread runs the op itself through the double-read façade
// below, with no combiner lock and no ring, at any max_batch. Lock-free
// locks already absorb contention and preemption by helping (the
// paper's mechanism), so funnelling a shard's closed-loop clients
// through one combiner only serialized them. Each closed-loop op is
// individually linearizable: it is one store op, or the façade's
// source-then-target probe pair. execute() keeps the completion
// contract for callers that hold their own slots: it arms the slot and
// publishes the result exactly once.
//
// Async path (try_submit + drain/serve). A client that keeps requests
// in flight enqueues POD request records (request.hpp) onto bounded
// MPSC queues (ring_queue.hpp), one ring per store shard, and checks
// its client-owned completion slots later. A per-ring combiner lock
// serializes consumers: drain() pops a batch of at most max_batch and
// executes it under ONE `with_epoch` entry, so every inner epoch entry
// (each op's with_epoch, each find's read_guard) nests for free.
// Whoever holds requests in flight may drain; serve() runs optional
// dedicated server threads over the same drain.
//
// Shared-line discipline. Nothing on the closed-loop path writes a line
// another thread writes: each closed-loop op is counted as a batch of 1
// in the caller's per-thread service cell (stats.hpp), so svc_batch_ops
// counts every executed op exactly once. The batch and depth histograms
// describe ring drains only; they live in each ring and are written
// under its combiner lock, and queue depth is sampled by the combiner
// when it drains, not by each pusher.
//
// Measured on 4 cores (4-CPU Xeon VM, 1 NUMA node, gcc 12.2 -O2,
// 2026-10-17; details in ARCHITECTURE.md section 4): running closed-loop
// calls inline took perfbench `service_mixed` (3 closed-loop clients,
// 80/20 mix on 100K zipf keys, medians of ten 20 s runs) from 5.63 to
// 13.97 Mop/s (2.48x), find p99 from 2.0 to 0.70 us and update p99 from
// 2.5 to 1.3 us. The 1.48x over direct recorded when the tier landed
// was a 1-CORE result — blocking locks under oversubscription, where a
// preempted bucket-lock holder stalls everyone and the combiner's
// serialization wins — and did not reproduce on 4 cores at any
// (clients, batch, mode) point.
//
// Batch execution order (drains): reads first, grouped (each through
// the memoized-read cache and the optimistic find path), then writes.
// Within one batch a read may therefore be served before an
// earlier-enqueued write from a DIFFERENT client; an async client that
// needs read-your-write orders its own requests by waiting for the
// write's completion before submitting the read. Completion
// publication is per-op and exactly-once: the ring hands each record to
// exactly one drain, and a drain publishes each popped record once — a
// parked (chaos-killed) combiner still owns its popped batch and
// completes it on release, which the chaos tests assert window by
// window.
//
// Double-read façade (the pending item from sharded_map::rebalance_into):
// during a live rebalance window — begin_rebalance(dst) armed, a
// rebalancer looping rebalance_step() — service-tier reads probe the
// PRIMARY first and fall back to the rebalance target. Source-first is
// load-bearing, not a style choice: the cross-store move publishes the
// key in the destination strictly BEFORE hiding it in the source
// (hashtable try_move: `tprev->next = moved` precedes `fcur->removed =
// true`, and the idempotence log preserves that effect order across
// helper replays), so a key mid-move is visible in at least one store at
// every instant. Probing source first makes that airtight: "absent in
// source" linearizes after the source-side removal, which the move
// orders after the destination-side publication — so the destination
// probe that follows must find the key. The reverse order (destination
// first) admits a miss: destination probed before the publication,
// source probed after the removal. Writes during a window route to the
// primary (inserts) or to both stores (removes — the key may live on
// either side); callers quiesce writes and loop rebalance_step to
// drained before cutting over, the same discipline rebalance_into
// documents.
//
// Fault points (FLOCK_CHAOS test builds only, erased otherwise):
//   svc.enqueue.post_push   request published to the ring, submitter not
//                           yet waiting (a killed CLIENT leaves a request
//                           the combiner must still complete)
//   svc.drain.post_pop      batch popped, not yet executed (a killed
//                           combiner owns in-flight requests; release
//                           resumes and completes them exactly once)
//   svc.exec.pre_complete   op executed, completion not yet published
//                           (the hardest window: work done, waiter blind;
//                           crossed by drains and by inline execute())
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "chaos/faultpoint.hpp"
#include "flock/flock.hpp"
#include "service/request.hpp"
#include "service/ring_queue.hpp"
#include "store/sharded_map.hpp"

namespace flock_service {

/// Log2-bucketed counter histogram for batch sizes and queue depths
/// (bucket 0 counts zeros, bucket i counts [2^(i-1), 2^i)). Each ring
/// owns one pair, written only under its combiner lock; readers take an
/// approximate monitoring snapshot, like the flock stat counters.
struct histogram {
  static constexpr int kBuckets = 17;  // zeros + values up to 2^15, + tail
  std::atomic<uint64_t> buckets[kBuckets] = {};

  histogram() = default;
  histogram(const histogram& o) { merge(o); }
  histogram& operator=(const histogram&) = delete;

  static int bucket_of(uint64_t v) {
    const int b = v == 0 ? 0 : std::bit_width(v);
    return b < kBuckets ? b : kBuckets - 1;
  }
  /// Single writer at a time (the combiner lock holder), so a load plus
  /// a store suffices: no locked RMW on the combiner's path.
  void add(uint64_t v) {
    std::atomic<uint64_t>& c = buckets[bucket_of(v)];
    // mo: relaxed (both) — monitoring counter; the combiner lock's
    // acquire/release orders successive writers, readers are approximate.
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  void merge(const histogram& o) {
    for (int b = 0; b < kBuckets; b++)
      // mo: relaxed — merges into a reader-private snapshot.
      buckets[b].store(count(b) + o.count(b), std::memory_order_relaxed);
  }
  uint64_t count(int b) const {
    // mo: relaxed — monitoring read, same contract as add.
    return buckets[b].load(std::memory_order_relaxed);
  }
};

template <class K, class V, bool Strict = false>
class service {
 public:
  using store_t = flock_store::sharded_map<K, V, Strict>;
  using request_t = request<K, V>;

  struct options {
    std::size_t ring_capacity = 1024;  // per ring, rounded to a power of two
    std::size_t max_batch = 64;        // drain bound per combining pass
  };

  /// One ring per shard: a shard's keys never split across rings, and
  /// combiners of different shards share neither a ring nor its lock.
  explicit service(store_t& primary, options o = {}) : primary_(primary) {
    max_batch_ = o.max_batch == 0 ? 1 : o.max_batch;
    rings_.reserve(primary.shard_count());
    for (std::size_t i = 0; i < primary.shard_count(); i++)
      rings_.push_back(
          std::make_unique<ring_state>(o.ring_capacity, max_batch_));
  }

  store_t& store() { return primary_; }
  std::size_t ring_count() const { return rings_.size(); }
  std::size_t ring_of(K k) const { return primary_.shard_of(k); }

  /// Non-blocking async submit. The caller must have arm()ed
  /// `r.done` and keep both the completion and any referenced storage
  /// alive until the completion publishes. Returns false on a full ring
  /// (backpressure — the request was NOT enqueued and is retryable;
  /// counted in svc_ring_full). Some drain() or serve() must then run
  /// the ring.
  bool try_submit(const request_t& r) {
    if (!rings_[ring_of(r.key)]->q.try_push(r)) {
      ++flock::detail::my_svc_cell().ring_full;
      return false;
    }
    // Window: request visible to combiners, submitter not yet waiting.
    FLOCK_FAULTPOINT("svc.enqueue.post_push");
    return true;
  }

  /// Closed-loop helpers: run one op on the calling thread and return its
  /// result. These make the service a drop-in Set for the workload driver
  /// (run_mixed / run_churn drive them as closed-loop clients).
  std::optional<V> find(K k) {
    count_inline();
    return facade_find(k);
  }
  bool insert(K k, V v) {
    count_inline();
    return execute_write({op_kind::insert, k, v, nullptr});
  }
  bool remove(K k) {
    count_inline();
    return execute_write({op_kind::remove, k, V{}, nullptr});
  }
  /// Move `k` from the primary into the armed rebalance target (false
  /// when no window is armed or the key raced away).
  bool move_to_target(K k) {
    count_inline();
    return execute_write({op_kind::move, k, V{}, nullptr});
  }

  /// Closed-loop op with the completion contract, for callers that hold
  /// their own slots: arms `r.done`, runs the op on the calling thread
  /// and publishes the result exactly once. No ring, no combiner lock.
  void execute(request_t r) {
    r.done->arm();
    count_inline();
    complete(r);
  }

  /// One combining pass over ring `ri`: try to take the combiner lock,
  /// pop a batch, execute it under a single epoch entry, publish the
  /// completions. Returns the number of requests executed (0 when the
  /// ring was empty or another combiner holds the lock).
  std::size_t drain(std::size_t ri) {
    ring_state& rs = *rings_[ri];
    if (!try_lock(rs)) return 0;
    const std::size_t n = combine_locked(rs);
    unlock(rs);
    return n;
  }

  /// Dedicated server loop: round-robin drain of the rings owned by
  /// server `id` of `servers` (ring i belongs to server i % servers),
  /// yielding when a full sweep found nothing. Optional — async
  /// submitters may drain on their own — but it models the deployment
  /// where server threads own shard-affine rings and absorb the
  /// execution work entirely. After `stop`, one final sweep completes
  /// anything already enqueued.
  void serve(std::size_t id, std::size_t servers,
             const std::atomic<bool>& stop) {
    if (servers == 0) servers = 1;
    // mo: acquire — stop release-stored by the controller; ordering here
    // guarantees the final sweep below sees every push that
    // happened-before the stop store.
    while (!stop.load(std::memory_order_acquire)) {
      std::size_t did = 0;
      for (std::size_t r = id; r < rings_.size(); r += servers)
        did += drain(r);
      if (did == 0) std::this_thread::yield();
    }
    for (std::size_t r = id; r < rings_.size(); r += servers)
      while (drain(r) != 0) {
      }
  }

  // --- double-read façade over a live rebalance window ----------------------

  /// Arm the window: service-tier reads now fall back to `dst`, writes
  /// become window-aware (see the header comment). `dst` must outlive
  /// the window.
  void begin_rebalance(store_t& dst) {
    // mo: release — publishes the target's construction to the acquire
    // loads on the read/write paths.
    rebalance_dst_.store(&dst, std::memory_order_release);
  }

  /// One budgeted migration pass primary -> target (a thin wrapper over
  /// rebalance_into so the rebalancer can run as just another client of
  /// the service object). Callers loop until a pass reports nothing
  /// moved and nothing exhausted, then end_rebalance().
  typename store_t::rebalance_report rebalance_step(
      std::size_t budget, int attempts_per_key = 1 << 10) {
    store_t* dst = rebalance_target();
    if (dst == nullptr) return {};
    return primary_.rebalance_into(*dst, budget, attempts_per_key);
  }

  void end_rebalance() {
    // mo: release — symmetric with begin_rebalance; the null store only
    // retracts the fallback.
    rebalance_dst_.store(nullptr, std::memory_order_release);
  }

  store_t* rebalance_target() const {
    // mo: acquire — pairs with begin_rebalance's release store; a
    // non-null target's construction happens-before any probe of it.
    return rebalance_dst_.load(std::memory_order_acquire);
  }

  /// Per-service histograms, summed across rings: the size of every
  /// drained batch, and the queue depth each such drain saw on taking
  /// the lock. Closed-loop ops never enter them.
  histogram batch_histogram() const { return sum(&ring_state::batch_hist); }
  histogram depth_histogram() const { return sum(&ring_state::depth_hist); }

 private:
  struct alignas(64) ring_state {
    ring_queue<request_t> q;
    // 0 = free; serializes consumers.
    alignas(64) std::atomic<uint32_t> combiner{0};
    // Guarded by the combiner lock (handed combiner to combiner through
    // its acquire/release pair).
    std::unique_ptr<request_t[]> batch;
    histogram batch_hist;
    histogram depth_hist;
    ring_state(std::size_t cap, std::size_t max_batch)
        : q(cap), batch(new request_t[max_batch]) {}
  };

  static bool try_lock(ring_state& rs) {
    // mo: relaxed — test before exchange: a held lock is seen without
    // pulling its line exclusive; the exchange below is what acquires.
    return rs.combiner.load(std::memory_order_relaxed) == 0 &&
           // mo: acquire — combiner lock: pairs with unlock's release,
           // ordering the previous combiner's consumer-side ring state
           // (head index, scratch batch, histograms) before this pass.
           rs.combiner.exchange(1, std::memory_order_acquire) == 0;
  }

  static void unlock(ring_state& rs) {
    // mo: release — hands the consumer-side state to the next combiner's
    // acquire exchange.
    rs.combiner.store(0, std::memory_order_release);
  }

  /// One combining pass; the caller holds `rs`'s combiner lock. Pops one
  /// queued batch of at most max_batch and runs it under ONE epoch
  /// entry. Returns the number of requests executed.
  std::size_t combine_locked(ring_state& rs) {
    const std::size_t depth = rs.q.approx_size();
    const std::size_t n =
        depth == 0 ? 0 : rs.q.pop_up_to(rs.batch.get(), max_batch_);
    if (n == 0) return 0;
    // Window: batch popped and owned by this combiner, nothing executed.
    // A kill here parks the combiner holding both the lock and the
    // in-flight requests; release resumes and completes them.
    FLOCK_FAULTPOINT("svc.drain.post_pop");
    flock::with_epoch([&] {
      execute_batch(rs.batch.get(), n);
      return true;
    });
    flock::detail::svc_cell& c = flock::detail::my_svc_cell();
    c.batches += 1;
    c.batch_ops += n;
    if (n > c.batch_max) c.batch_max = n;
    if (depth > c.depth_hw) c.depth_hw = depth;
    rs.batch_hist.add(n);
    rs.depth_hist.add(depth);
    return n;
  }

  /// A closed-loop op is a batch of 1 in the caller's own cell: no
  /// shared line is written.
  static void count_inline() {
    flock::detail::svc_cell& c = flock::detail::my_svc_cell();
    c.batches += 1;
    c.batch_ops += 1;
    if (c.batch_max == 0) c.batch_max = 1;
  }

  histogram sum(histogram ring_state::*which) const {
    histogram h;
    for (const auto& rs : rings_) h.merge((*rs).*which);
    return h;
  }

  /// Execute one batch, inside the caller's epoch entry: reads first,
  /// grouped (through the memo cache / optimistic path), then writes.
  /// Inner epoch entries (each op's with_epoch, each find's read_guard)
  /// nest for free under the outer region.
  void execute_batch(request_t* b, std::size_t n) {
    for (std::size_t i = 0; i < n; i++)
      if (b[i].kind == op_kind::find) complete(b[i]);
    for (std::size_t i = 0; i < n; i++)
      if (b[i].kind != op_kind::find) complete(b[i]);
  }

  /// Run one request and publish its result.
  void complete(request_t& r) {
    if (r.kind == op_kind::find) {
      std::optional<V> f = facade_find(r.key);
      publish(r, f.has_value(), f.has_value() ? *f : V{});
    } else {
      publish(r, execute_write(r), V{});
    }
  }

  static void publish(request_t& r, bool ok, V v) {
    // Window: op executed, completion unpublished — the waiter is blind
    // to finished work until the release store in publish().
    FLOCK_FAULTPOINT("svc.exec.pre_complete");
    r.done->publish(ok, v);
  }

  /// Source-first double read (see the header comment for why this order
  /// cannot miss a mid-move key, and why destination-first can).
  std::optional<V> facade_find(K k) {
    std::optional<V> r = primary_.find(k);
    if (!r.has_value()) {
      store_t* dst = rebalance_target();
      if (dst != nullptr) r = dst->find(k);
    }
    return r;
  }

  bool execute_write(const request_t& r) {
    switch (r.kind) {
      case op_kind::insert:
        // Window writes land in the primary; the rebalance loop carries
        // them over (callers quiesce writes before cutover).
        return primary_.insert(r.key, r.value);
      case op_kind::remove: {
        // The key may live on either side of a live window: apply to
        // both (set semantics — removed iff it was resident anywhere).
        const bool a = primary_.remove(r.key);
        store_t* dst = rebalance_target();
        const bool b = dst != nullptr && dst->remove(r.key);
        return a || b;
      }
      case op_kind::move: {
        store_t* dst = rebalance_target();
        return dst != nullptr &&
               flock_ds::move_retry_ex(primary_, *dst, r.key, 1 << 10) ==
                   flock_ds::move_outcome::moved;
      }
      case op_kind::find:
        break;  // complete() routes finds to facade_find
    }
    return false;
  }

  store_t& primary_;
  std::atomic<store_t*> rebalance_dst_{nullptr};
  std::vector<std::unique_ptr<ring_state>> rings_;
  std::size_t max_batch_ = 64;
};

}  // namespace flock_service
