// log.hpp — the shared idempotence log (paper §3, Algorithm 2).
//
// Every thunk (descriptor) carries a log shared by all processes that run
// it. Each loggable event — a load of a mutable location, an allocation, a
// retirement, a committed boolean — occupies one 64-bit slot. A run
// commits its candidate value with a CAS(empty → value) and then adopts
// whatever the slot holds, so all runs of the thunk observe identical
// values and stay synchronized (same branches, same log positions).
//
// Slot encoding (empty = 0). Every run commits the same kind of payload
// at a given position, so the call site alone says how to decode a slot:
//  * packed compact-mutable words (lock words included) are committed
//    as-is: their tag is never 0 (mutables start at tag 1 and next_tag
//    never returns 0), so the word itself is never empty;
//  * every other payload (bools, pointers, retire flags, write_once
//    values, user commit_value) must be < 2^63 and carries bit 63 as a
//    "present" bit, so a committed 0 never collides with empty.
// A 64-bit slot CAS compiles to an inline `lock cmpxchg`; gcc turns a
// 16-byte std::atomic into out-of-line libatomic calls, even with -mcx16.
//
// Differences from the paper's pseudocode, both strengthenings:
//  * the empty sentinel can never collide with a legitimate value (Alg. 2
//    instead assumes `empty` is never stored by users);
//  * commits use compare-and-compare-and-swap (§6 "Avoiding CASes"):
//    read the slot first and skip the CAS when it is already full.
//
// Hot-path structure: the commit core takes the caller's thread context,
// so the lock machinery (which dispatches on the mode once per
// acquisition, see lock.hpp) performs no TLS lookups inside its loops.
// The public commit_* spellings fetch the context once per call.
//
// Logs grow in blocks of kLogBlockEntries entries (§6 "Arbitrary Length
// Logs"). A block is linked only when a commit finds the current one
// full, so a run that commits exactly kLogBlockEntries slots allocates
// nothing. Extending the chain is itself idempotent: the first run to
// overflow CASes a fresh block into the next pointer, losers free theirs.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <utility>

#include "allocator.hpp"
#include "config.hpp"
#include "epoch.hpp"
#include "thread_context.hpp"

namespace flock {

inline constexpr uint64_t kLogEmpty = 0;
/// Present bit of the non-packed payloads (see the slot encoding above).
inline constexpr uint64_t kLogPresent = uint64_t{1} << 63;

struct log_entry {
  std::atomic<uint64_t> v{kLogEmpty};
};

struct log_block {
  log_entry entries[kLogBlockEntries];
  std::atomic<log_block*> next{nullptr};
};

/// Thread-local cursor into the log of the thunk the thread is currently
/// running; {nullptr, 0} outside of any thunk (then commits pass through).
/// (The cursor itself lives in the thread context; log_cursor is defined
/// in thread_context.hpp.)
inline log_cursor& tls_log() noexcept { return detail::my_ctx()->log; }

/// True when the calling thread is executing inside a thunk, i.e. loggable
/// operations will be committed to a shared log.
inline bool in_thunk() noexcept {
  return detail::my_ctx()->log.block != nullptr;
}

/// Per-thread count of log-slot commits, for instrumentation (e.g. the
/// paper's "a successful insert commits about 5 entries to the log").
inline uint64_t& tls_commit_count() noexcept {
  return detail::my_ctx()->commit_count;
}

namespace detail {

/// Step the cursor into the next block, linking one idempotently when
/// no run has yet. Kept out of line: most thunks never overflow.
[[gnu::noinline]] inline void log_extend(thread_context* c,
                                         log_cursor& cur) {
  // mo: acquire — pairs with the acq_rel append CAS below: a helper that
  // sees another run's block must also see its initialized contents.
  log_block* nxt = cur.block->next.load(std::memory_order_acquire);
  if (nxt == nullptr) {
    log_block* mine = pool_new_ctx<log_block>(c);
    log_block* expected = nullptr;
    // mo: acq_rel — release publishes the freshly constructed block to
    // other runs of this thunk; acquire on failure so `expected` (the
    // winner's block) is safe to walk into.
    if (cur.block->next.compare_exchange_strong(expected, mine,
                                                std::memory_order_acq_rel)) {
      nxt = mine;
    } else {
      pool_delete_ctx(c, mine);  // never published
      nxt = expected;
    }
  }
  cur.block = nxt;
  cur.pos = 0;
}

/// commitValue (Alg. 2 line 31) core on a raw slot word, with the
/// context supplied by the caller. `desired` must be non-empty. Returns
/// the word the slot holds afterwards and whether the calling run was
/// first to commit.
inline std::pair<uint64_t, bool> commit_word_ctx(thread_context* c,
                                                 uint64_t desired) {
  assert(desired != kLogEmpty);
  log_cursor& cur = c->log;
  if (cur.block == nullptr) return {desired, true};  // outside any lock
  if (cur.pos == kLogBlockEntries) [[unlikely]]
    log_extend(c, cur);
  log_entry& slot = cur.block->entries[cur.pos++];
  ++c->commit_count;

  // Compare-and-compare-and-swap (§6): skip the CAS when already full.
  // mo: acquire — adopting a value another run committed must also
  // acquire whatever that run published before committing it (e.g. the
  // object a committed pointer refers to).
  uint64_t seen = slot.v.load(std::memory_order_acquire);
  if (seen != kLogEmpty) return {seen, false};
  uint64_t expected = kLogEmpty;
  // mo: acq_rel — release so the committed payload's referent is visible
  // to runs that adopt it; acquire on failure for the same adoption
  // argument as the ccas pre-check above.
  if (slot.v.compare_exchange_strong(expected, desired,
                                     std::memory_order_acq_rel)) {
    return {desired, true};
  }
  return {expected, false};
}

/// Commit a packed compact-mutable word as-is (its tag is never 0).
inline uint64_t commit_packed_ctx(thread_context* c, uint64_t packed) {
  assert(packed != kLogEmpty && "packed words carry a tag >= 1");
  return commit_word_ctx(c, packed).first;
}

/// Commit a payload < 2^63 under the present bit.
inline std::pair<uint64_t, bool> commit64_first_ctx(thread_context* c,
                                                    uint64_t v) {
  assert(v < kLogPresent && "log payloads must fit in 63 bits");
  auto [w, first] = commit_word_ctx(c, v | kLogPresent);
  return {w & ~kLogPresent, first};
}

inline uint64_t commit64_ctx(thread_context* c, uint64_t v) {
  return commit64_first_ctx(c, v).first;
}

inline bool commit_bool_ctx(thread_context* c, bool b) {
  return commit64_ctx(c, b ? 1 : 0) != 0;
}

}  // namespace detail

/// commitValue on a payload < 2^63 (public spelling; one context fetch
/// per call). Returns the committed payload and whether the calling run
/// was first to commit.
inline std::pair<uint64_t, bool> commit64_first(uint64_t v) {
  return detail::commit64_first_ctx(detail::my_ctx(), v);
}

inline uint64_t commit64(uint64_t v) { return commit64_first(v).first; }

inline bool commit_bool(bool b) { return commit64(b ? 1 : 0) != 0; }

/// Users can commit arbitrary nondeterministic results below 2^63 (paper
/// §3.2: "The commitValue can also be used directly by the user").
inline uint64_t commit_value(uint64_t v) { return commit64(v); }

/// Idempotent allocation (Alg. 2 line 51): every run constructs its own
/// candidate, the first to commit wins, losers destroy theirs.
template <class T, class... Args>
T* idem_new(Args&&... args) {
  detail::thread_context* c = detail::my_ctx();
  T* mine = detail::pool_new_ctx<T>(c, std::forward<Args>(args)...);
  auto r = detail::commit64_first_ctx(c, reinterpret_cast<uint64_t>(mine));
  if (r.second) return mine;
  detail::pool_delete_ctx(c, mine);  // never published: immediate free is safe
  return reinterpret_cast<T*>(r.first);
}

/// Idempotent retirement (Alg. 2 line 57): the first run to commit the
/// flag owns the retirement; epoch-based collection frees it later.
template <class T>
void idem_retire(T* obj) {
  detail::thread_context* c = detail::my_ctx();
  if (detail::commit64_first_ctx(c, 1).second)
    detail::epoch_retire_ctx(c, obj);
}

}  // namespace flock
