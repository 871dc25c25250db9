// ring_queue.hpp — bounded MPSC request ring for the service tier
// (Vyukov-style per-slot sequence numbers; see the lock-free queue
// designs surveyed in Cederman et al., "Lock-free Concurrent Data
// Structures").
//
// Shape: clients (many producers) `try_push` request records; one
// consumer at a time drains them in FIFO batches with `pop_up_to(n)`.
// The queue is a power-of-two slot array where every slot carries its
// own 64-bit sequence number:
//
//   seq == pos              slot free, a producer claiming `pos` may fill
//   seq == pos + 1          slot published, the consumer at `pos` may read
//   seq == pos + capacity   slot consumed, free again for lap pos+capacity
//
// The per-slot sequence is what makes the ring safe at capacity: a
// producer that wins the CAS on the shared tail has *reserved* its slot,
// and the consumer cannot read it until the producer's release-store of
// seq publishes the record — while a slow producer on lap L cannot be
// confused with lap L+1 because sequences are 64-bit monotone (the
// classic wrapped-index ABA is designed out; tests drive a capacity-4
// ring through thousands of laps to exercise exactly this reuse).
//
// try_push never blocks: a full ring (slot's seq one whole lap behind)
// reports failure and the caller treats the request as retryable
// backpressure — the service tier counts these rejections.
//
// Consumer side: pop_up_to is written for a SINGLE consumer at a time;
// the service tier serializes consumers with a per-ring combiner lock
// (service.hpp), which is what turns N contending clients into one
// batch-executing combiner. head_/tail_ live on separate cache lines and
// the consumer reads the producer index once per *batch* (a cached view)
// rather than once per slot, so a drain costs one cross-core line
// transfer plus the slots themselves.
//
// This header deliberately knows nothing about requests or the flock
// runtime: it is a plain bounded ring over any trivially copyable T.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace flock_service {

template <class T>
class ring_queue {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring slots are published by a plain copy + release store");

 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit ring_queue(std::size_t capacity) {
    std::size_t c = 2;
    while (c < capacity) c <<= 1;
    mask_ = c - 1;
    slots_.reset(new slot[c]);
    for (std::size_t i = 0; i < c; i++)
      // mo: relaxed — pre-publication init; the constructor happens-before
      // any producer/consumer use of the queue object.
      slots_[i].seq.store(static_cast<uint64_t>(i),
                          std::memory_order_relaxed);
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Multi-producer, non-blocking. Returns false when the ring is full
  /// (the caller retries or treats it as backpressure); never waits on
  /// the consumer or on other producers.
  bool try_push(const T& v) {
    // mo: relaxed — the slot's seq (acquire, below) carries the ordering;
    // the shared tail is only a claim ticket.
    uint64_t pos = tail_.load(std::memory_order_relaxed);
    while (true) {
      slot& s = slots_[static_cast<std::size_t>(pos) & mask_];
      // mo: acquire — pairs with the consumer's release store of
      // seq = pos + capacity: seeing the slot free means the consumer's
      // read of the previous lap's record happened-before our overwrite.
      const uint64_t seq = s.seq.load(std::memory_order_acquire);
      const int64_t dif =
          static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
      if (dif == 0) {
        // Slot free for this lap: claim the position.
        // mo: relaxed — claiming only orders against other producers via
        // the CAS itself; publication ordering rides the seq store below.
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed))
          {
          s.value = v;
          // mo: release — publishes the record to the consumer, whose
          // acquire load of seq == pos + 1 admits the read.
          s.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded pos; retry with the new position.
      } else if (dif < 0) {
        // One whole lap behind: the consumer has not freed this slot —
        // the ring is full *at our observed position*. Re-read the tail
        // once: if it moved, another producer won the slot and we race
        // for the next one; if not, report full.
        // mo: relaxed — same claim-ticket contract as the first load.
        const uint64_t cur = tail_.load(std::memory_order_relaxed);
        if (cur == pos) return false;
        pos = cur;
      } else {
        // A producer claimed this position but has not published yet
        // (seq still shows a later lap from our perspective only when we
        // raced past; reload and retry).
        // mo: relaxed — claim-ticket reload, as above.
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single-consumer batch drain: copy up to `n` published records into
  /// `out`, in FIFO order, without blocking on in-flight producers (a
  /// claimed-but-unpublished slot ends the batch early rather than
  /// spinning — the producer is mid-publish and the next drain gets it).
  /// Callers MUST serialize pop_up_to invocations (service.hpp holds the
  /// per-ring combiner lock across the drain).
  std::size_t pop_up_to(T* out, std::size_t n) {
    // mo: relaxed — single consumer: only this (serialized) side ever
    // writes head_, so the load needs no ordering against other writers;
    // the external combiner lock orders consumer handoffs.
    uint64_t pos = head_.load(std::memory_order_relaxed);
    // Cached producer-index view: bound the batch with ONE read of the
    // shared tail instead of probing seq past the published prefix one
    // slot at a time (the miss would still be safe, just a wasted
    // cross-core load per drain).
    // mo: relaxed — an upper bound only; each slot's seq (acquire, below)
    // is what admits the actual read.
    const uint64_t bound = tail_.load(std::memory_order_relaxed);
    std::size_t got = 0;
    while (got < n && pos < bound) {
      slot& s = slots_[static_cast<std::size_t>(pos) & mask_];
      // mo: acquire — pairs with the producer's release publication of
      // seq = pos + 1; admits reading the record it covers.
      if (s.seq.load(std::memory_order_acquire) != pos + 1) break;
      out[got++] = s.value;
      // mo: release — frees the slot for lap pos + capacity; a producer's
      // acquire load of this value orders our read before its overwrite.
      s.seq.store(pos + mask_ + 1, std::memory_order_release);
      pos++;
    }
    if (got != 0)
      // mo: relaxed — see the head_ load above (single serialized
      // consumer; producers never read head_).
      head_.store(pos, std::memory_order_relaxed);
    return got;
  }

  /// Racy occupancy estimate, read by the consumer when it drains (the
  /// service tier's queue-depth sampling). May transiently over/under-
  /// count by in-flight pushes; monitoring only.
  std::size_t approx_size() const {
    // mo: relaxed (both) — monitoring snapshot, no ordering needed.
    const uint64_t t = tail_.load(std::memory_order_relaxed);
    const uint64_t h = head_.load(std::memory_order_relaxed);
    return t > h ? static_cast<std::size_t>(t - h) : 0;
  }

 private:
  struct slot {
    std::atomic<uint64_t> seq;
    T value;
  };

  std::unique_ptr<slot[]> slots_;
  std::size_t mask_ = 0;
  // Producer and consumer indices on separate lines: producers CAS tail_
  // while the consumer bumps head_ once per batch; sharing a line would
  // put every drain on the producers' coherence path.
  alignas(64) std::atomic<uint64_t> tail_{0};
  alignas(64) std::atomic<uint64_t> head_{0};
};

}  // namespace flock_service
