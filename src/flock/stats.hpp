// stats.hpp — lightweight introspection counters for the helping
// machinery. The counters live directly in the per-thread context
// (thread_context.hpp), so the hot-path cost is one plain increment on a
// structure that is already resident (the service tier's counters use
// per-thread cells of their own, below); this header provides the
// aggregate view. Used by benchmarks to report helping rates and by tests
// to assert helping actually happened.
#pragma once

#include <atomic>
#include <cstdint>

#include "allocator.hpp"
#include "chaos/faultpoint.hpp"
#include "config.hpp"
#include "thread_context.hpp"
#include "threading.hpp"

namespace flock {
namespace detail {

// Resizes deferred because the successor-table allocation failed
// (injected "ht.resize.alloc" fault or real OOM); bumped by the ds tier
// (hashtable.hpp), aggregated here. Monotonic, process-wide.
inline std::atomic<uint64_t> g_resize_deferrals{0};

// Service-tier op counter (src/service/service.hpp), one cell per dense
// thread id. Same single-writer idiom as the runtime counters in
// thread_context — a cell is written only by the thread holding its id,
// with plain adds — but kept in an array of its own so the direct path's
// thread_context layout does not change. Whole cache lines per cell: a
// service call never touches a line another core writes.
struct alignas(kCacheLine) svc_cell {
  uint64_t ops = 0;  // closed-loop service calls executed
};
inline constinit svc_cell g_svc_cells[kMaxThreads]{};

/// The calling thread's service-counter cell.
inline svc_cell& my_svc_cell() noexcept { return g_svc_cells[my_ctx()->id]; }

}  // namespace detail

struct stats_snapshot {
  uint64_t descriptors_created = 0;  // lock acquisitions (lock-free mode)
  uint64_t helps_attempted = 0;      // help() entries
  uint64_t helps_run = 0;            // help() revalidations that ran a thunk
  uint64_t descriptors_reused = 0;   // fast-path pool reuse (never helped)
  uint64_t helps_avoided = 0;        // throttled waits resolved without a help
  uint64_t backoff_spins = 0;        // cpu_pause iterations spent backing off
  // Fault-tolerance counters (chaos instrumentation + allocation failure
  // contract; all zero in builds without FLOCK_CHAOS and without OOM).
  uint64_t alloc_failures = 0;       // null pool/array returns (allocator.hpp)
  uint64_t resize_deferrals = 0;     // resizes deferred on allocation failure
  uint64_t chaos_stalls = 0;         // injected stalls (chaos/faultpoint.hpp)
  uint64_t chaos_kills = 0;          // injected kills (dead-holder parks)
  uint64_t chaos_alloc_fails = 0;    // injected allocation failures
  // Service-tier counters (src/service/service.hpp; zero when no service
  // front end runs). The service has no rings or combining: each call is
  // a batch of 1, and the two ring fields always read 0. All four stay
  // because perfbench/perfbench.cpp (frozen with the repo benchmark)
  // reads them for its service.* ledger entries.
  uint64_t svc_batches = 0;          // service calls (one batch each)
  uint64_t svc_batch_ops = 0;        // service calls executed
  uint64_t svc_ring_full = 0;        // always 0: no request rings
  uint64_t svc_depth_hw = 0;         // always 0: no request rings
};

/// Aggregate counters across all threads (monotonic since process start).
/// The per-thread cells are plain single-writer words, so a snapshot
/// taken while traffic runs is approximate: each cell is read whole
/// (no tearing on word-aligned targets) but cells are not mutually
/// consistent. Monitoring output only — never use for control flow.
/// (.tsan-suppressions carries the matching race:flock::stats entry.)
inline stats_snapshot stats() {
  stats_snapshot s;
  const int bound = thread_id_bound();
  for (int i = 0; i < bound; i++) {
    const detail::thread_context& c = detail::g_ctx[i];
    s.descriptors_created += c.stat_created;
    s.helps_attempted += c.stat_attempted;
    s.helps_run += c.stat_ran;
    s.descriptors_reused += c.stat_reused;
    s.helps_avoided += c.stat_helps_avoided;
    s.backoff_spins += c.stat_backoff_spins;
    s.svc_batch_ops += detail::g_svc_cells[i].ops;
  }
  s.svc_batches = s.svc_batch_ops;
  s.alloc_failures = alloc_failures();
  // mo: relaxed — monotonic monitoring counter, same approximate-snapshot
  // contract as the per-thread cells above.
  s.resize_deferrals =
      detail::g_resize_deferrals.load(std::memory_order_relaxed);
  s.chaos_stalls = flock_chaos::stalls_injected();
  s.chaos_kills = flock_chaos::kills_injected();
  s.chaos_alloc_fails = flock_chaos::alloc_fails_injected();
  return s;
}

}  // namespace flock
