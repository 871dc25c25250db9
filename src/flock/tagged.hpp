// tagged.hpp — 48-bit value + 16-bit tag packing and the announcement
// protocol that makes 16-bit tag reuse safe (paper §6 "ABA", second
// optimization: "roughly it uses an announcement array to ensure that
// wrapping around is safe — i.e., it never uses a tag that is announced").
//
// Protocol implemented here:
//  * a helper that is about to CAS a compact mutable announces the
//    (location, expected packed word) pair in its thread context, with a
//    seq_cst fence, and clears the slot after the CAS;
//  * a writer that wraps a location's 16-bit tag scans the contexts and
//    picks the next tag not announced for that location.
//
// Residual assumption (ARCHITECTURE.md §1): an announcement that
// races with a concurrent wrap scan is only dangerous if the location's
// tag additionally wraps all the way around (2^16 stores) while the
// announcing helper sleeps *and* the packed values collide. The paper's
// own scheme ("the full description is beyond the scope of this paper")
// accepts equivalent engineering assumptions. This is the library's only
// ABA story: every mutable is compact. A mutable with a wider counter
// would not fit one 64-bit log slot and would need a two-slot log
// encoding of its own.
//
// Tags are never 0: mutables start at tag 1 and next_tag skips 0 on
// wrap, so a packed word is never 0 — the log's "empty" slot (log.hpp).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>

#include "config.hpp"
#include "thread_context.hpp"
#include "threading.hpp"

namespace flock {

inline constexpr int kTagBits = 16;
inline constexpr int kValBits = 48;
inline constexpr uint64_t kValMask = (uint64_t{1} << kValBits) - 1;
inline constexpr uint64_t kTagLimit = uint64_t{1} << kTagBits;

constexpr uint64_t pack_tagged(uint64_t tag, uint64_t val) {
  return (tag << kValBits) | (val & kValMask);
}
constexpr uint64_t tag_of(uint64_t packed) { return packed >> kValBits; }
constexpr uint64_t val_of(uint64_t packed) { return packed & kValMask; }

namespace detail {

/// Announce an expected packed word for `loc` around a CAS. RAII so the
/// slot is always cleared. The caller supplies its context so the hot
/// path performs no TLS lookup of its own.
class announce_guard {
 public:
  announce_guard(thread_context* c, const void* loc, uint64_t packed)
      : c_(c) {
    // mo: relaxed — ann_packed is published by the ann_loc store below
    // (scanners read ann_loc first and only then ann_packed, so the
    // release/fence on ann_loc orders this store for them).
    c_->ann_packed.store(packed, std::memory_order_relaxed);
#if defined(__x86_64__) || defined(__i386__)
    // TSO: stores retire in order and the LOCK-prefixed CAS that every
    // caller issues next cannot complete before prior stores are globally
    // visible, so the announcement is ordered before the CAS without an
    // explicit full barrier. (The compiler cannot sink the store past the
    // CAS either: the CAS's release half must publish earlier writes.)
    // This removes one mfence from every mutable store/CAM and from every
    // lock acquire/release.
    // mo: release — orders ann_packed before ann_loc for scanners; the
    // store->CAS ordering is the hardware argument above.
    c_->ann_loc.store(loc, std::memory_order_release);
#else
    // mo: relaxed — the seq_cst fence right below globally orders both
    // announcement stores before the caller's CAS (non-TSO fallback).
    c_->ann_loc.store(loc, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  }
  announce_guard(const void* loc, uint64_t packed)
      : announce_guard(my_ctx(), loc, packed) {}
  announce_guard(const announce_guard&) = delete;
  announce_guard& operator=(const announce_guard&) = delete;
  ~announce_guard() {
    // mo: release — a scanner that reads this nullptr must also see the
    // CAS the announcement protected; relaxed would let it un-ban a tag
    // while the CAS is still in flight on a weak machine.
    c_->ann_loc.store(nullptr, std::memory_order_release);
  }

 private:
  thread_context* c_;
};

/// Next tag for `loc`, given the current packed word. Fast path: +1. On
/// wrap, scan announcements and skip tags still held for this location.
/// Never returns 0 (see the header).
inline uint64_t next_tag(const void* loc, uint64_t cur_packed) {
  uint64_t t = tag_of(cur_packed) + 1;
  if (t < kTagLimit) [[likely]]
    return t;
  // Wrapped: gather announced tags for this location.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  uint64_t banned[kMaxThreads];
  int nbanned = 0;
  const int bound = thread_id_bound();
  for (int i = 0; i < bound; i++) {
    // mo: acquire — pairs with the announcer's release on ann_loc: seeing
    // loc here guarantees the matching ann_packed store below is visible.
    if (g_ctx[i].ann_loc.load(std::memory_order_acquire) == loc)
      banned[nbanned++] =
          // mo: acquire — read after ann_loc matched; acquire keeps the
          // two loads ordered (relaxed would allow the packed read to
          // hoist above the ann_loc check and observe a stale pair).
          tag_of(g_ctx[i].ann_packed.load(std::memory_order_acquire));
  }
  for (t = 1;; t++) {  // at most kMaxThreads+1 iterations
    bool ok = true;
    for (int i = 0; i < nbanned; i++)
      if (banned[i] == t) {
        ok = false;
        break;
      }
    if (ok) return t;
  }
}

}  // namespace detail

/// Bit-cast a trivially copyable T (<= 48 bits of payload) to/from the
/// packed value field.
template <class T>
uint64_t to_bits48(T v) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "compact mutables hold trivially copyable values <= 8 bytes");
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(T));
  assert((b & ~kValMask) == 0 &&
         "value does not fit in 48 bits");
  return b;
}

template <class T>
T from_bits48(uint64_t b) {
  T v{};
  std::memcpy(&v, &b, sizeof(T));
  return v;
}

}  // namespace flock
