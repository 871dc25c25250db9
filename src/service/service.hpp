// service.hpp — the serving front end over the store tier: closed-loop
// calls that run on the caller's thread, plus the double-read façade
// that keeps a live rebalance window invisible to them.
//
// Every call runs on the calling thread as one store op, or during a
// rebalance window as a primary op or probe followed by one op on the
// target (see below); each call is individually linearizable.
// Lock-free locks already absorb contention and preemption by helping
// (the paper's mechanism); a layer that funnels clients through a
// combiner only serializes them.
//
// Decision-rule record (4-CPU Xeon VM, 1 NUMA node, gcc 12.2 -O2,
// 2026-10-17). The tier used to carry MPSC request rings with
// flat-combining drains; the rule was to delete them unless some
// (clients, batch, mode) point beat direct calls by >= 1.1x. Routing
// closed-loop calls through the combiner ran 0.30-0.58x direct at batch
// 8/32 on every client count; once those calls ran inline, perfbench
// `service_mixed` went from 5.63 to 13.97 Mop/s. Async clients keeping
// k in {1, 4, 16, 64} requests in flight (max_batch 8/64, 1/4/16
// clients, both lock modes) ran 0.25-0.58x direct at 4 clients and
// 0.31-0.84x at 16; no point reached the bar, so the rings, combining
// and async API were deleted. The 1.48x over direct recorded when the
// tier landed was a 1-core result (blocking locks under
// oversubscription) and never reproduced on 4 cores.
//
// Double-read façade. During a live rebalance window (begin_rebalance
// armed, a rebalancer looping rebalance_step) reads probe the PRIMARY
// first and fall back to the target. Source-first is load-bearing: the
// cross-store move publishes the key in the destination strictly BEFORE
// hiding it in the source (hashtable try_move: `tprev->next = moved`
// precedes `fcur->removed = true`, and the idempotence log keeps that
// order across helper replays), so "absent in source" linearizes after
// the source-side removal, which follows the destination-side
// publication, and the destination probe that follows must find the
// key. Destination-first admits a miss: destination probed before the
// publication, source probed after the removal.
//
// Window writes keep the primary shrinking only. An insert reports
// "present" if the primary holds the key and otherwise goes to the
// target, so a key is never resident on both sides and a pass that
// moves nothing means the primary is empty. A remove tries the primary
// and goes on to the target only if the primary missed; once missed, the
// key stays out of the primary, so the target remove linearizes alone.
// begin_rebalance, like the cutover after end_rebalance, is
// called with writes quiesced: an insert that read "no window" must not
// land in the primary after the window opens.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>

#include "flock/flock.hpp"
#include "store/sharded_map.hpp"

namespace flock_service {

template <class K, class V, bool Strict = false>
class service {
 public:
  using store_t = flock_store::sharded_map<K, V, Strict>;

  explicit service(store_t& primary) : primary_(primary) {}

  store_t& store() { return primary_; }

  /// Closed-loop ops, run on the calling thread. They make the service a
  /// drop-in Set for the workload driver (run_mixed / run_churn).
  std::optional<V> find(K k) {
    count_op();
    std::optional<V> r = primary_.find(k);
    if (!r.has_value()) {
      store_t* dst = rebalance_target();
      if (dst != nullptr) r = dst->find(k);
    }
    return r;
  }

  bool insert(K k, V v) {
    count_op();
    store_t* dst = rebalance_target();
    if (dst == nullptr) return primary_.insert(k, v);
    return !primary_.find(k).has_value() && dst->insert(k, v);
  }

  /// Set semantics across a live window: removed iff it was resident on
  /// either side. A primary hit returns at once: the key cannot be in the
  /// target too, and a second remove there could delete a concurrent
  /// insert that landed in the target after the primary one.
  bool remove(K k) {
    count_op();
    if (primary_.remove(k)) return true;
    store_t* dst = rebalance_target();
    return dst != nullptr && dst->remove(k);
  }

  /// Move `k` from the primary into the armed rebalance target (false
  /// when no window is armed or the key raced away).
  bool move_to_target(K k) {
    count_op();
    store_t* dst = rebalance_target();
    return dst != nullptr &&
           flock_ds::move_retry_ex(primary_, *dst, k, 1 << 10) ==
               flock_ds::move_outcome::moved;
  }

  // --- double-read façade over a live rebalance window ----------------------

  /// Arm the window (writes quiesced, see the header comment): reads now
  /// fall back to `dst`, inserts land in it. `dst` must outlive the
  /// window.
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

 private:
  /// Counted in the caller's own cell (stats.hpp): no shared line written.
  static void count_op() { ++flock::detail::my_svc_cell().ops; }

  store_t& primary_;
  std::atomic<store_t*> rebalance_dst_{nullptr};
};

}  // namespace flock_service
