// request.hpp — the service tier's wire format: a POD request record
// that travels through a ring_queue by plain copy, plus the completion
// slot the client waits on.
//
// No std::future, no allocation on the hot path: the client owns its
// completion slot (stack or a per-client slab), points the request at
// it, and spins/yields on one atomic word. The server executes the op
// and publishes result-then-state with one release store; the client's
// acquire load of the state admits reading the result fields. A
// completion publishes at most once per armed request: the ring hands
// each record to exactly one drain (single serialized consumer), and the
// drain executes and publishes it exactly once — the chaos tests park a
// server mid-batch and assert exactly that.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace flock_service {

enum class op_kind : uint8_t {
  find,    // result: ok = key present, value = payload when present
  insert,  // result: ok = inserted (false: already present / no window)
  remove,  // result: ok = removed (false: was absent)
  move,    // result: ok = key moved primary -> rebalance target
};

/// The client-side completion slot. Reusable: arm() before (re)submitting
/// the owning request, wait()/ready() after. V must be trivially copyable
/// (same contract as the ring).
template <class V>
struct completion {
  static constexpr uint32_t kPending = 0;
  static constexpr uint32_t kDone = 1;

  std::atomic<uint32_t> state{kPending};
  V value{};        // find payload; valid only when ok after a find
  bool ok = false;  // op outcome (found / applied / moved)

  void arm() {
    ok = false;
    // mo: relaxed — re-arming happens strictly before the request is
    // pushed; the ring's release publication orders it for the server.
    state.store(kPending, std::memory_order_relaxed);
  }

  bool ready() const {
    // mo: acquire — pairs with publish()'s release store; admits reading
    // ok/value written before it.
    return state.load(std::memory_order_acquire) == kDone;
  }

  /// Server side: write the result, then flip the state exactly once.
  void publish(bool ok_, V value_) {
    ok = ok_;
    value = value_;
    // mo: release — publishes ok/value to the waiting client's acquire
    // load in ready().
    state.store(kDone, std::memory_order_release);
  }

  /// Spin briefly, then yield — a plain async-client wait. Submitters
  /// that can make progress themselves should drain their ring between
  /// polls instead of burning the time slice.
  void wait() const {
    for (int spins = 0; !ready(); spins++) {
      if (spins < 64) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#else
        std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
      } else {
        std::this_thread::yield();
      }
    }
  }
};

/// The ring slot payload: one op, by value. `done` points at a
/// client-owned completion that outlives the request's whole lifecycle
/// (push -> drain -> publish); the chaos kill tests rely on that
/// ownership to assert rescued state after a parked server resumes.
template <class K, class V>
struct request {
  op_kind kind = op_kind::find;
  K key{};
  V value{};
  completion<V>* done = nullptr;
};

}  // namespace flock_service
