// contended_locks — multi-thread contention bench for the lock paths
// themselves (PR 4). The figure benches measure whole data structures;
// this one isolates the lock acquire/release cycle under the three
// contention shapes the paper's §8 argues about:
//
//   hot     N threads hammer ONE lock (the worst case: every acquisition
//           is contended once N > 1).
//   zipf    N threads pick from an array of locks with zipf(0.99) skew —
//           a few hot locks plus a long cold tail, the shape real
//           structures (hashtable sentinels, tree roots) produce.
//   oversub N >> cores on one hot lock: the paper's headline scenario,
//           where a blocking lock holder can be descheduled mid-critical-
//           section but lock-free waiters can finish its work.
//
// Sweeps threads x {blocking, lock-free} x {try, strict}. Each point is
// timed as kWindows separate windows, because a single window of a hot
// contended lock can land in either of two regimes (hot try lock-free at
// 4 threads has read 11.5 and 1.3 Mop/s on consecutive runs). Emits the
// median as the point's json_reporter series plus `<series>_min` and
// `<series>_max` (default file BENCH_contended.json; FLOCK_BENCH_JSON
// overrides), and per-point helping/backoff stat deltas on stderr so the
// help-throttle's effect is visible next to the throughput it buys.
//
// Env knobs:
//   FLOCK_CONTEND_MS       timed window              (default 200 ms)
//   FLOCK_CONTEND_LOCKS    zipf lock-array size      (default 64)
//   FLOCK_CONTEND_MAXT     top of the thread sweep   (default 8)
//   FLOCK_OVERSUB_MULT     oversub = mult x cores    (default 8)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "flock/flock.hpp"
#include "harness.hpp"
#include "workload/zipf.hpp"

namespace {

struct knobs {
  int ms = static_cast<int>(bench::env_long("FLOCK_CONTEND_MS", 200));
  int nlocks = static_cast<int>(bench::env_long("FLOCK_CONTEND_LOCKS", 64));
  int max_threads = static_cast<int>(bench::env_long("FLOCK_CONTEND_MAXT", 8));
  int oversub_mult =
      static_cast<int>(bench::env_long("FLOCK_OVERSUB_MULT", 8));
};

knobs& k() {
  static knobs kn;
  return kn;
}

constexpr int kWindows = 5;  // timed windows per point (odd: a true median)

// One lock + its counter, padded so neighbouring array entries don't
// false-share.
struct alignas(2 * flock::kCacheLine) lock_slot {
  flock::lock lk;
  flock::mutable_<uint64_t>* ctr = nullptr;
};


struct point_result {
  double mops = 0;        // successful acquisitions per second (counter
                          // delta; for strict this equals calls)
  double call_mops = 0;   // completed lock calls per second (try mode:
                          // includes failed attempts — reported to stderr)
  uint64_t acquired = 0;  // successful acquisitions (counter delta)
};

/// Run `threads` workers for the timed window; each iteration picks a slot
/// via `pick(rng)` and try/strict-locks it around a counter increment.
template <bool Strict, class Pick>
point_result run_point(std::vector<lock_slot>& slots, int threads,
                       Pick&& pick) {
  std::atomic<bool> stop{false};
  std::atomic<bool> go{false};
  std::atomic<uint64_t> calls{0};
  uint64_t before = 0;
  for (auto& s : slots) before += s.ctr->read_raw();

  std::vector<std::thread> ws;
  ws.reserve(threads);
  for (int t = 0; t < threads; t++) {
    ws.emplace_back([&, t] {
      flock_workload::rng64 rng(flock_workload::splitmix64(t + 1));
      while (!go.load(std::memory_order_acquire)) {
      }
      uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        lock_slot& s = slots[pick(rng)];
        auto* ctr = s.ctr;
        flock::with_epoch([&] {
          if constexpr (Strict) {
            return flock::strict_lock(s.lk, [ctr] {
              ctr->store(ctr->load() + 1);
              return true;
            });
          } else {
            return flock::try_lock(s.lk, [ctr] {
              ctr->store(ctr->load() + 1);
              return true;
            });
          }
        });
        n++;
      }
      calls.fetch_add(n, std::memory_order_relaxed);
    });
  }
  auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(k().ms));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : ws) w.join();
  auto t1 = std::chrono::steady_clock::now();

  uint64_t after = 0;
  for (auto& s : slots) after += s.ctr->read_raw();
  point_result r;
  double secs = std::chrono::duration<double>(t1 - t0).count();
  r.acquired = after - before;
  r.mops = static_cast<double>(r.acquired) / secs / 1e6;
  r.call_mops = static_cast<double>(calls.load()) / secs / 1e6;
  return r;
}

std::vector<lock_slot> make_slots(int n) {
  std::vector<lock_slot> slots(n);
  for (auto& s : slots) {
    s.ctr = flock::pool_new<flock::mutable_<uint64_t>>();
    s.ctr->init(0);
  }
  return slots;
}

void free_slots(std::vector<lock_slot>& slots) {
  for (auto& s : slots) flock::pool_delete(s.ctr);
  slots.clear();
  flock::epoch_manager::instance().flush();
}

void stat_delta(const flock::stats_snapshot& a,
                const flock::stats_snapshot& b, const std::string& series) {
  std::fprintf(stderr,
               "  %-36s helps att/run/avoided %llu/%llu/%llu  backoff %llu\n",
               series.c_str(),
               static_cast<unsigned long long>(b.helps_attempted -
                                               a.helps_attempted),
               static_cast<unsigned long long>(b.helps_run - a.helps_run),
               static_cast<unsigned long long>(b.helps_avoided -
                                               a.helps_avoided),
               static_cast<unsigned long long>(b.backoff_spins -
                                               a.backoff_spins));
}

template <bool Strict>
void sweep(bench::json_reporter& rep, const char* scenario, int nlocks,
           const std::vector<int>& thread_points) {
  for (bool blocking : {true, false}) {
    flock::set_blocking(blocking);
    for (int t : thread_points) {
      auto slots = make_slots(nlocks);
      // zipf(0.99) over the array; a 1-entry array degenerates to "hot".
      flock_workload::zipf_distribution dist(
          static_cast<uint64_t>(nlocks), nlocks > 1 ? 0.99 : 0.0);
      auto before = flock::stats();
      std::vector<point_result> win;
      for (int w = 0; w < kWindows; w++)
        win.push_back(run_point<Strict>(slots, t, [&](auto& rng) {
          return nlocks > 1 ? dist.sample(rng) - 1 : 0;
        }));
      auto after = flock::stats();
      std::sort(win.begin(), win.end(),
                [](const point_result& a, const point_result& b) {
                  return a.mops < b.mops;
                });
      const point_result& med = win[kWindows / 2];
      std::string series = std::string(scenario) + "_" +
                           (Strict ? "strict" : "try") +
                           (blocking ? "_blocking" : "_lockfree") +
                           "_t" + std::to_string(t);
      rep.add(series, med.mops);
      rep.add(series + "_min", win.front().mops);
      rep.add(series + "_max", win.back().mops);
      std::fprintf(stderr,
                   "  %-36s %8.3f Mops acquired, median of %d (%.3f calls;"
                   " min %.3f max %.3f)\n",
                   series.c_str(), med.mops, kWindows, med.call_mops,
                   win.front().mops, win.back().mops);
      stat_delta(before, after, series);
      free_slots(slots);
    }
  }
  flock::set_blocking(false);
}

}  // namespace

int main() {
  std::vector<int> threads;
  for (int t = 1; t <= k().max_threads; t *= 2) threads.push_back(t);
  int cores = static_cast<int>(std::thread::hardware_concurrency());
  if (cores < 1) cores = 1;
  std::vector<int> oversub{k().oversub_mult * cores};

  bench::json_reporter rep;
  std::fprintf(stderr, "contended_locks: window=%dms locks=%d cores=%d\n",
               k().ms, k().nlocks, cores);

  std::fprintf(stderr, "single hot lock, try:\n");
  sweep<false>(rep, "hot", 1, threads);
  std::fprintf(stderr, "single hot lock, strict:\n");
  sweep<true>(rep, "hot", 1, threads);
  std::fprintf(stderr, "zipf lock array, try:\n");
  sweep<false>(rep, "zipf", k().nlocks, threads);
  std::fprintf(stderr, "zipf lock array, strict:\n");
  sweep<true>(rep, "zipf", k().nlocks, threads);
  std::fprintf(stderr, "oversubscription (%dx %d cores), strict:\n",
               k().oversub_mult, cores);
  sweep<true>(rep, "oversub", 1, oversub);
  std::fprintf(stderr, "oversubscription, try:\n");
  sweep<false>(rep, "oversub", 1, oversub);

  rep.write("BENCH_contended.json");
  return 0;
}
