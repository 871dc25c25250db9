// allocator.hpp — per-thread slab pools for fixed-type objects.
//
// Stands in for ParlayLib's scalable allocator used by the paper (§8
// "We used ParlayLib for scalable memory allocation"). Each (type, thread)
// pair owns a free list fed by slab allocations; frees push back onto the
// *freeing* thread's list. Cross-thread frees are expected (helpers retire
// other threads' nodes), so lists are per-thread and never shared.
//
// Hot-path design: the pool state is a zero-initialized static array
// (no function-local-static guard on access), indexed by the caller's
// thread context. Slab refill is per-thread — each thread chains the
// slabs it allocated onto its own slot, so refill takes no global lock.
//
// The pool also supports the paper's "shuffle" trick (§8): pre-allocating
// a large batch and freeing it in random order to decorrelate placement.
//
// Failure contract (unified for pool_new / pool_new_ctx / array_new): an
// allocation that cannot be satisfied — the backing `operator new`
// returning null, or an injected `alloc.refill` / `alloc.array` fault
// (chaos/faultpoint.hpp) — returns **nullptr** and bumps the process-wide
// `alloc_failures()` counter. No constructor runs, no pool bookkeeping
// moves, and nothing is ever dereferenced on the failure path; callers
// that cannot tolerate null (most of the runtime: descriptors, nodes)
// inherit whatever their context does with null, while callers with a
// degraded mode (the hashtable's resize trigger) check and defer. Before
// this contract, a null slab return was silent UB (the placement new ran
// on nullptr).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <random>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "chaos/faultpoint.hpp"
#include "config.hpp"
#include "thread_context.hpp"
#include "threading.hpp"

namespace flock {
namespace detail {

// Allocation failures observed (null slab/array returns, injected or
// real). Monotonic, like the per-thread stat counters.
inline std::atomic<uint64_t> g_alloc_failures{0};

/// Untyped per-thread free-list pool for blocks of a fixed size/alignment.
/// All state is static and zero-initialized, so access needs no singleton
/// guard; functions take the caller's thread context explicitly.
template <std::size_t Size, std::size_t Align>
class raw_pool {
  struct free_node {
    free_node* next;
  };
  struct slab_link {
    slab_link* next;
  };
  static constexpr std::size_t kSlot =
      Size < sizeof(free_node) ? sizeof(free_node) : Size;
  // Object sizes are multiples of their alignment, so a header of one
  // Align-rounded pointer keeps every object correctly aligned.
  static constexpr std::size_t kHeader =
      (sizeof(slab_link) + Align - 1) / Align * Align;
  static constexpr std::size_t kSlabObjects = 256;

  struct alignas(kCacheLine) per_thread {
    free_node* head;
    long long outstanding;  // live objects allocated - freed (stats)
    slab_link* slabs;       // slabs this thread allocated (owner-only)
  };

 public:
  /// Returns nullptr on slab-refill failure (see the failure contract in
  /// the header comment); the pool state is untouched in that case.
  static void* allocate(thread_context* c) {
    per_thread& t = slots_[c->id];
    free_node* n = t.head;
    if (n == nullptr) [[unlikely]] {
      n = refill(t);
      if (n == nullptr) [[unlikely]] {
        // mo: relaxed — monotonic stats counter; readers (stats line,
        // tests at quiescence) need a count, not an ordering edge.
        g_alloc_failures.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
      }
    }
    t.head = n->next;
    ++t.outstanding;
    return n;
  }

  static void deallocate(thread_context* c, void* p) {
    per_thread& t = slots_[c->id];
    auto* n = static_cast<free_node*>(p);
    n->next = t.head;
    t.head = n;
    --t.outstanding;
  }

  /// Net live objects across all threads (approximate under concurrency;
  /// exact at quiescence). Used by leak-accounting tests.
  static long long outstanding() {
    long long sum = 0;
    const int bound = thread_id_bound();
    for (int i = 0; i < bound; i++) sum += slots_[i].outstanding;
    return sum;
  }

  /// Paper §8: allocate a large batch and free it in random order so run-to-
  /// run placement is decorrelated.
  static void shuffle(std::size_t count) {
    thread_context* c = my_ctx();
    std::vector<void*> v;
    v.reserve(count);
    for (std::size_t i = 0; i < count; i++) v.push_back(allocate(c));
    std::mt19937_64 rng(0x9e3779b97f4a7c15ULL);
    std::shuffle(v.begin(), v.end(), rng);
    for (void* p : v) deallocate(c, p);
  }

 private:
  /// Returns nullptr when the slab allocation fails (injected fault or a
  /// real OOM from the nothrow operator new); the free list and slab
  /// chain are untouched in that case.
  [[gnu::noinline]] static free_node* refill(per_thread& t) {
    // One alloc-site faultpoint: stall/kill entries armed here fire too.
    if (FLOCK_FAULTPOINT_ALLOC_FAIL("alloc.refill")) [[unlikely]]
      return nullptr;
    void* mem = ::operator new(kHeader + kSlot * kSlabObjects,
                               std::align_val_t{Align}, std::nothrow);
    if (mem == nullptr) [[unlikely]]
      return nullptr;
    auto* link = static_cast<slab_link*>(mem);
    link->next = t.slabs;
    t.slabs = link;
    char* base = static_cast<char*>(mem) + kHeader;
    for (std::size_t i = 0; i < kSlabObjects; i++) {
      auto* n = reinterpret_cast<free_node*>(base + i * kSlot);
      n->next = t.head;
      t.head = n;
    }
    free_node* n = t.head;
    return n;
  }

  // Slabs are returned to the OS only at process exit (as before); the
  // reaper walks every thread's chain. Its destructor must not run while
  // library threads are still allocating — same static-destruction caveat
  // the mutex-guarded slab list had.
  struct reaper {
    ~reaper() {
      for (int i = 0; i < kMaxThreads; i++) {
        slab_link* s = slots_[i].slabs;
        slots_[i] = per_thread{};
        while (s != nullptr) {
          slab_link* nxt = s->next;
          ::operator delete(static_cast<void*>(s), std::align_val_t{Align});
          s = nxt;
        }
      }
    }
  };

  inline static per_thread slots_[kMaxThreads] = {};
  inline static reaper reaper_{};
};

template <class T>
using pool_for = raw_pool<sizeof(T), alignof(T) < 8 ? 8 : alignof(T)>;

/// Context-threaded allocation for hot paths that already hold a context.
/// Propagates the pool's null on failure (no constructor runs).
template <class T, class... Args>
T* pool_new_ctx(thread_context* c, Args&&... args) {
  void* mem = pool_for<T>::allocate(c);
  if (mem == nullptr) [[unlikely]]
    return nullptr;
  return ::new (mem) T(std::forward<Args>(args)...);
}

template <class T>
void pool_delete_ctx(thread_context* c, T* p) {
  p->~T();
  pool_for<T>::deallocate(c, p);
}

// --- variable-length arrays ------------------------------------------------
//
// Pools hand out fixed-size blocks, so variable-length payloads (e.g. a
// hashtable's bucket array) go through a sized-header allocation instead.
// The length travels in a header in front of the array, which is what lets
// an array be retired through the epoch machinery with a plain
// function-pointer deleter (retire() carries no size argument).
//
// Arrays of at least one huge page (a large hashtable's buckets, whose
// random-access loads otherwise miss the TLB as well as the cache) are
// allocated huge-page aligned, and the whole huge pages of the block are
// marked MADV_HUGEPAGE before the constructors touch them. Only pages
// inside the block are advised, so nothing outside it is faulted in and
// resident memory does not grow. The advice is best effort: with
// transparent huge pages off, or if madvise fails, the array is backed by
// small pages as any other allocation. The length in the header is all
// array_delete needs to work the alignment out again.

inline std::atomic<long long> g_arrays_outstanding{0};

#if defined(__linux__) && defined(MADV_HUGEPAGE)
inline constexpr bool kHugeArrays = true;
#else
inline constexpr bool kHugeArrays = false;
#endif
// The transparent-huge-page size on x86-64 (and arm64 with 4 KiB pages).
inline constexpr std::size_t kHugePage = std::size_t{2} << 20;

template <class T>
struct array_layout {
  static constexpr std::size_t kAlign =
      alignof(T) < alignof(std::max_align_t) ? alignof(std::max_align_t)
                                             : alignof(T);
  static constexpr std::size_t kHeader =
      (sizeof(std::size_t) + kAlign - 1) / kAlign * kAlign;

  static std::size_t bytes(std::size_t n) { return kHeader + n * sizeof(T); }
  static bool huge(std::size_t n) {
    return kHugeArrays && n * sizeof(T) >= kHugePage;
  }
  static std::align_val_t align(std::size_t n) {
    return std::align_val_t{huge(n) ? kHugePage : kAlign};
  }

  static std::size_t& count_of(T* base) {
    return *reinterpret_cast<std::size_t*>(reinterpret_cast<char*>(base) -
                                           kHeader);
  }
};

}  // namespace detail

/// Allocate a default-constructed T[n] whose length is recorded alongside
/// it, so it can be deleted (or epoch-retired) from the pointer alone.
/// Returns nullptr on failure — injected (`alloc.array` faultpoint) or a
/// real OOM — with an `alloc_failures()` bump and no constructors run
/// (the same contract as pool_new, see the header comment).
template <class T>
T* array_new(std::size_t n) {
  using L = detail::array_layout<T>;
  void* mem = nullptr;
  if (!FLOCK_FAULTPOINT_ALLOC_FAIL("alloc.array")) [[likely]]
    mem = ::operator new(L::bytes(n), L::align(n), std::nothrow);
  if (mem == nullptr) [[unlikely]] {
    // mo: relaxed — monotonic stats counter (see pool allocate).
    detail::g_alloc_failures.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  // Best effort (see above): a failure leaves the block on small pages.
  if (L::huge(n))
    (void)::madvise(mem, L::bytes(n) & ~(detail::kHugePage - 1),
                    MADV_HUGEPAGE);
#endif
  T* base = reinterpret_cast<T*>(static_cast<char*>(mem) + L::kHeader);
  L::count_of(base) = n;
  for (std::size_t i = 0; i < n; i++) ::new (static_cast<void*>(base + i)) T();
  // mo: relaxed — leak-accounting counter, audited at quiescence.
  detail::g_arrays_outstanding.fetch_add(1, std::memory_order_relaxed);
  return base;
}

/// Length recorded by array_new (for audits).
template <class T>
std::size_t array_length(T* p) {
  return detail::array_layout<T>::count_of(p);
}

/// Destroy and free an array_new<T>'d array.
template <class T>
void array_delete(T* p) {
  using L = detail::array_layout<T>;
  const std::size_t n = L::count_of(p);
  for (std::size_t i = n; i > 0; i--) p[i - 1].~T();
  ::operator delete(static_cast<void*>(reinterpret_cast<char*>(p) - L::kHeader),
                    L::align(n));
  // mo: relaxed — leak-accounting counter, audited at quiescence.
  detail::g_arrays_outstanding.fetch_sub(1, std::memory_order_relaxed);
}

/// Type-erased array deleter usable as a plain function pointer (epoch
/// retire).
template <class T>
void array_delete_erased(void* p) {
  array_delete(static_cast<T*>(p));
}

/// Live array_new arrays across all types (leak accounting in tests).
inline long long arrays_outstanding() {
  // mo: relaxed — audit counter whose updates are relaxed fetch_adds; an
  // acquire here (as this read once was) ordered nothing and implied a
  // synchronization edge that does not exist. Exact only at quiescence.
  return detail::g_arrays_outstanding.load(std::memory_order_relaxed);
}

/// Allocation failures observed process-wide (pool slab refills and
/// array_new headers that returned null — injected or real). Monotonic.
inline uint64_t alloc_failures() {
  // mo: relaxed — monotonic stats counter, exact only at quiescence.
  return detail::g_alloc_failures.load(std::memory_order_relaxed);
}

/// Construct a T from a per-thread pool.
template <class T, class... Args>
T* pool_new(Args&&... args) {
  return detail::pool_new_ctx<T>(detail::my_ctx(),
                                 std::forward<Args>(args)...);
}

/// Destroy and return to the pool.
template <class T>
void pool_delete(T* p) {
  detail::pool_delete_ctx(detail::my_ctx(), p);
}

/// Type-erased deleter usable as a plain function pointer (epoch retire).
template <class T>
void pool_delete_erased(void* p) {
  pool_delete(static_cast<T*>(p));
}

/// Net live pool objects of type T (leak accounting in tests).
template <class T>
long long pool_outstanding() {
  return detail::pool_for<T>::outstanding();
}

/// Decorrelate allocator placement (paper §8 warmup step).
template <class T>
void pool_shuffle(std::size_t count) {
  detail::pool_for<T>::shuffle(count);
}

}  // namespace flock
