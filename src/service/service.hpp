// service.hpp — the batched asynchronous serving front end over the
// store tier: MPSC request rings + flat-combining batch execution.
//
// Shape (the one a real serving system has): clients enqueue POD request
// records (request.hpp) onto bounded MPSC queues (ring_queue.hpp), one
// ring per store shard, and wait on client-owned completion slots; the
// consumer side dequeues *batches* and executes the whole batch against
// sharded_map under a single epoch entry. Two things make the batch
// cheaper than the same ops issued directly:
//
//  * Amortized entry: one `with_epoch` brackets the whole batch, so
//    every inner epoch entry (each op's with_epoch, each find's
//    read_guard) nests for free — the per-op seq_cst announce that
//    dominates a warm op's fixed cost is paid once per batch.
//  * Flat combining: a per-ring combiner lock serializes consumers, so
//    N clients hammering a hot shard become ONE thread executing their
//    combined batch without lock contention, helping traffic, or
//    descriptor churn. The pipeline needs no dedicated server thread:
//    dedicated servers (serve()) are an optional deployment shape, not a
//    liveness requirement.
//
// Closed-loop path (execute()). A client that finds its ring's combiner
// word free (test, then exchange) becomes the combiner: it drains one
// queued batch of at most max_batch first, so earlier submitters keep
// FIFO precedence, then executes its own request in place under the same
// lock and epoch entry — no ring round trip, accounted as a batch of 1.
// (With nothing queued there is no batch entry to share, and the op runs
// under its own entries: for a find, the cheaper sticky read_guard.)
// A client that loses the race pushes its request and spins on its own
// completion word with `pause` between checks, draining whenever a plain
// load shows the combiner free. After kSpinPauses idle rounds (about
// 10 us) it falls back to a yield/sleep ladder, which is what keeps an
// oversubscribed box from rotating every waiter through the runqueue.
//
// Shared-line discipline. Nothing on the closed-loop path RMWs a
// process-wide line: the service counters are per-thread single-writer
// cells summed by flock::stats() (stats.hpp), the batch and depth
// histograms live in each ring and are written under its combiner lock,
// and queue depth is sampled by the combiner when it drains, not by each
// pusher.
//
// Measured on 4 cores (4-CPU Xeon VM, 1 NUMA node, gcc 12.2 -O2,
// 2026-10-17). perfbench `service_mixed` (3 closed-loop clients, 80/20
// mix on 100K zipf keys, medians of ten 20 s runs) went from 1.83 to
// 5.16 Mop/s (2.8x) with the pieces above, find p99 from 3.2 to 2.0 us
// and update p99 from 110 to 2.5 us (the old waiters fell into 50 us
// sleeps after two yields). Against direct store calls the piped path
// still loses on 4 cores: bench/service_pipeline.cpp at 16 clients,
// batch 8, pipes 3.8-5.0 Mops lock-free (0.35-0.42x direct) and 5.9-6.2
// Mops blocking (0.7x). The 1.48x over direct recorded when the tier
// landed was a 1-CORE result — blocking locks under oversubscription,
// where a preempted bucket-lock holder stalls everyone and the
// combiner's serialization wins — and does not reproduce on 4 cores.
// With lock-free locks the runtime already absorbs preemption by
// helping, the paper's own mechanism, so the service tier earns its cost
// only when the async API itself is the point.
//
// Batch execution order: reads first, grouped (each through the
// memoized-read cache and the optimistic find path), then writes.
// Within one batch a read may therefore be served before an
// earlier-enqueued write from a DIFFERENT client; a client that needs
// read-your-write orders its own requests by waiting for the write's
// completion before submitting the read (the closed-loop helpers do
// exactly that). Completion publication is per-op and exactly-once: the
// ring hands each record to exactly one drain, and a drain publishes
// each popped record once — a parked (chaos-killed) combiner still owns
// its popped batch and completes it on release, which the chaos tests
// assert window by window.
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
//                           (the hardest window: work done, waiter blind)
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
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
  using completion_t = completion<V>;

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
  /// counted in svc_ring_full).
  bool try_submit(const request_t& r) { return try_submit_to(ring_of(r.key), r); }

  /// Closed-loop helpers: submit one op and combine while waiting. These
  /// make the service a drop-in Set for the workload driver (run_mixed /
  /// run_churn drive them as closed-loop clients).
  /// In the degenerate no-combining configuration (max_batch == 1) the
  /// sync helpers skip the completion slot too: the caller IS the
  /// executor, so the result can flow back as a return value instead of
  /// a publish/ready round trip through an atomic stack slot. execute()
  /// keeps the full completion contract at any max_batch for callers
  /// that hold their own slots.
  std::optional<V> find(K k) {
    if (max_batch_ == 1) return facade_find(k);
    completion_t c;
    execute({op_kind::find, k, V{}, &c});
    return c.ok ? std::optional<V>(c.value) : std::nullopt;
  }
  bool insert(K k, V v) {
    if (max_batch_ == 1)
      return execute_write({op_kind::insert, k, v, nullptr});
    completion_t c;
    execute({op_kind::insert, k, v, &c});
    return c.ok;
  }
  bool remove(K k) {
    if (max_batch_ == 1)
      return execute_write({op_kind::remove, k, V{}, nullptr});
    completion_t c;
    execute({op_kind::remove, k, V{}, &c});
    return c.ok;
  }
  /// Move `k` from the primary into the armed rebalance target through
  /// the pipeline (false when no window is armed or the key raced away).
  bool move_to_target(K k) {
    if (max_batch_ == 1)
      return execute_write({op_kind::move, k, V{}, nullptr});
    completion_t c;
    execute({op_kind::move, k, V{}, &c});
    return c.ok;
  }

  /// Submit-and-wait with combining. Fast path: a client that finds its
  /// ring's combiner free becomes the combiner — it drains one queued
  /// batch first (earlier submitters keep FIFO precedence), then runs its
  /// own request in place under the same lock and epoch entry, with no
  /// ring round trip (a batch of 1 in the accounting). Otherwise it
  /// queues and waits in execute_queued().
  ///
  /// Degenerate configuration: max_batch == 1 turns combining off and
  /// the closed-loop path executes inline with no combiner lock at all,
  /// with the same façade semantics and the same completion contract.
  /// "No batching" then costs what a direct store call costs; routing it
  /// through the combiner would serialize each shard's clients for no
  /// batching benefit (0.34-0.55x direct at 2-16 clients on 4 cores).
  /// Async submits (try_submit + drain/serve) flow through the ring at
  /// any max_batch.
  void execute(request_t r) {
    r.done->arm();
    if (max_batch_ == 1) {
      if (r.kind == op_kind::find) {
        std::optional<V> f = facade_find(r.key);
        publish(r, f.has_value(), f.has_value() ? *f : V{});
      } else {
        publish(r, execute_write(r), V{});
      }
      return;
    }
    const std::size_t ri = ring_of(r.key);
    ring_state& rs = *rings_[ri];
    if (try_lock(rs)) {
      combine_locked(rs, &r);
      unlock(rs);
      return;
    }
    execute_queued(ri, r);
  }

  /// The queued path lives in a separate noinline member so the ring
  /// loops do not crowd the fast path out of the caller's inline budget.
  ///
  /// Waiting discipline: spin on the own completion word, pausing between
  /// checks and draining whenever a plain load shows the combiner free
  /// (drain's test-then-exchange), for kSpinPauses idle rounds; then
  /// yield a couple of times, then back off to real sleeps. The spin
  /// serves threads <= cores, where a combining pass ends within a few
  /// microseconds. The sleeps serve oversubscription: yield-spinning
  /// waiters stay runnable and force a context-switch rotation through
  /// every waiter each time the combiner is preempted, while sleeping
  /// waiters leave the runqueue, so the combiner gets whole quanta. A
  /// waiter that wakes while the combiner is parked drains the ring
  /// itself (progress never depends on the sleeper's timer).
#if defined(__GNUC__)
  __attribute__((noinline))
#endif
  void execute_queued(std::size_t ri, request_t r) {
    while (!try_submit_to(ri, r)) drain(ri);
    int idle = 0;
    while (!r.done->ready()) {
      if (drain(ri) != 0) {
        idle = 0;
        continue;
      }
      ++idle;
      if (idle <= kSpinPauses) {
        flock::detail::cpu_pause();
        continue;
      }
      const int ladder = idle - kSpinPauses;
      if (ladder <= 2) {
        std::this_thread::yield();
      } else {
        const int shift = ladder - 3 < 4 ? ladder - 3 : 4;
        std::this_thread::sleep_for(std::chrono::microseconds(50L << shift));
      }
    }
  }

  /// One combining pass over ring `ri`: try to take the combiner lock,
  /// pop a batch, execute it under a single epoch entry, publish the
  /// completions. Returns the number of requests executed (0 when the
  /// ring was empty or another combiner holds the lock).
  std::size_t drain(std::size_t ri) {
    ring_state& rs = *rings_[ri];
    if (!try_lock(rs)) return 0;
    const std::size_t n = combine_locked(rs, nullptr);
    unlock(rs);
    return n;
  }

  /// Dedicated server loop: round-robin drain of the rings owned by
  /// server `id` of `servers` (ring i belongs to server i % servers),
  /// yielding when a full sweep found nothing. Optional — clients combine
  /// on their own — but it models the deployment where server threads own
  /// shard-affine rings and absorb the execution work entirely. After
  /// `stop`, one final sweep completes anything already enqueued.
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
  /// batch (queued or inline), and the queue depth each combining pass
  /// saw on taking the lock (0: the pass ran only its own inline op).
  histogram batch_histogram() const { return sum(&ring_state::batch_hist, 1); }
  histogram depth_histogram() const { return sum(&ring_state::depth_hist, 0); }

 private:
  /// Pause budget of a waiter that lost the combiner race, before it
  /// falls back to the yield/sleep ladder: about 10 us on current x86,
  /// several combining passes on a 4-core box.
  static constexpr int kSpinPauses = 256;

  struct alignas(64) ring_state {
    ring_queue<request_t> q;
    // 0 = free; serializes consumers.
    alignas(64) std::atomic<uint32_t> combiner{0};
    // Guarded by the combiner lock (handed combiner to combiner through
    // its acquire/release pair). `lone` counts passes that ran only their
    // caller's own op on an empty ring — a batch of 1 at depth 0, folded
    // into the histograms by their accessors. It shares the lock's line,
    // so the common inline pass writes no line the lock did not bring.
    std::atomic<uint64_t> lone{0};
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
  /// queued batch of at most max_batch, then runs `own` (a request that
  /// never entered the ring, or null) after it, all under ONE epoch
  /// entry. A lone `own` skips the outer entry: there is nothing to
  /// amortize, and its own entries are cheaper (a find keeps the sticky
  /// read_guard announcement that a top-level with_epoch would re-pay).
  /// Returns the number of queued requests executed.
  std::size_t combine_locked(ring_state& rs, request_t* own) {
    const std::size_t depth = rs.q.approx_size();
    const std::size_t n =
        depth == 0 ? 0 : rs.q.pop_up_to(rs.batch.get(), max_batch_);
    if (n == 0 && own == nullptr) return 0;
    if (n == 0) {
      execute_batch(own, 1);
    } else {
      // Window: batch popped and owned by this combiner, nothing
      // executed. A kill here parks the combiner holding both the lock
      // and the in-flight requests; release resumes and completes them.
      FLOCK_FAULTPOINT("svc.drain.post_pop");
      flock::with_epoch([&] {
        execute_batch(rs.batch.get(), n);
        if (own != nullptr) execute_batch(own, 1);
        return true;
      });
    }
    flock::detail::svc_cell& c = flock::detail::my_svc_cell();
    c.batches += (n != 0) + (own != nullptr);
    c.batch_ops += n + (own != nullptr);
    const std::size_t largest = n != 0 ? n : 1;  // n == 0: own alone
    if (largest > c.batch_max) c.batch_max = largest;
    if (depth > c.depth_hw) c.depth_hw = depth;
    if (n == 0 && depth == 0) {
      // mo: relaxed (both) — monitoring counter, same contract as
      // histogram::add.
      rs.lone.store(rs.lone.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
      return 0;
    }
    if (n != 0) rs.batch_hist.add(n);
    if (own != nullptr) rs.batch_hist.add(1);
    rs.depth_hist.add(depth);
    return n;
  }

  bool try_submit_to(std::size_t ri, const request_t& r) {
    if (!rings_[ri]->q.try_push(r)) {
      ++flock::detail::my_svc_cell().ring_full;
      return false;
    }
    // Window: request visible to combiners, submitter not yet waiting.
    FLOCK_FAULTPOINT("svc.enqueue.post_push");
    return true;
  }

  /// Sum one histogram across rings, adding each ring's lone passes to
  /// bucket `lone_bucket`.
  histogram sum(histogram ring_state::*which, int lone_bucket) const {
    histogram h;
    uint64_t lone = 0;
    for (const auto& rs : rings_) {
      h.merge((*rs).*which);
      // mo: relaxed — monitoring read, same contract as histogram::count.
      lone += rs->lone.load(std::memory_order_relaxed);
    }
    h.buckets[lone_bucket].store(h.count(lone_bucket) + lone,
                                 std::memory_order_relaxed);  // mo: ditto
    return h;
  }

  /// Execute one batch, inside the caller's epoch entry: reads first,
  /// grouped (through the memo cache / optimistic path), then writes.
  /// Inner epoch entries (each op's with_epoch, each find's read_guard)
  /// nest for free under the outer region.
  void execute_batch(request_t* b, std::size_t n) {
    for (std::size_t i = 0; i < n; i++) {
      if (b[i].kind != op_kind::find) continue;
      std::optional<V> r = facade_find(b[i].key);
      publish(b[i], r.has_value(), r.has_value() ? *r : V{});
    }
    for (std::size_t i = 0; i < n; i++) {
      if (b[i].kind == op_kind::find) continue;
      publish(b[i], execute_write(b[i]), V{});
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
        break;  // handled in the read group
    }
    return false;
  }

  store_t& primary_;
  std::atomic<store_t*> rebalance_dst_{nullptr};
  std::vector<std::unique_ptr<ring_state>> rings_;
  std::size_t max_batch_ = 64;
};

}  // namespace flock_service
