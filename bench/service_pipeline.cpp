// service_pipeline — the A/B duel: closed-loop clients calling the
// store directly vs the same clients driving it through the service's
// async path (src/service/: MPSC rings + flat-combining batch
// execution), on ONE shared warmed store per lock mode.
//
// Closed-loop service calls (find/insert/remove/execute) run on the
// caller's thread and cost a direct store call plus one façade load, so
// they would only duel against themselves. The piped side instead goes
// through a small async adapter: try_submit, then drain the key's ring
// until the completion is ready, yielding after an idle pass. The duel
// therefore still measures what the rings and combining cost.
//
// Methodology follows the pr9 read-path duel (bench/micro_flock.cpp):
//
//  * Same binary, same store, alternating chunks: the deterministic
//    mixed zipf(0.99) op stream runs in order, the direct side taking
//    even chunks and the pipelined side odd ones. No position executes
//    twice, both sides inherit each other's line warming, and the store
//    stays at its churn equilibrium (~half occupancy, 50% updates).
//  * Tight interleaving + medians: each side reports its MEDIAN
//    per-chunk Mops across rounds, so background drift on the shared box
//    costs one chunk, not one side. Only the within-duel ratio is
//    comparable across runs — never the absolute Mops.
//  * Chunks must be LONG (default 2M ops/side/round). The blocking
//    collapse is a rare-event phenomenon: a holder preempted mid
//    bucket-lock costs ~one scheduler quantum (~10ms) of global stall,
//    so a chunk whose per-client slice fits inside one quantum never
//    preempts a holder at all (threads run back to back, each finishing
//    its slice unpreempted), and a median over short chunks filters the
//    few that do hit a stall. Measured at c8 blocking: per-client runs
//    of <= 12.5K ops never collapse (~13 Mops), 25K-125K collapse in
//    some repetitions only, 250K+ collapse consistently (~6.5 Mops).
//    2M-op chunks put every chunk in the consistent regime.
//  * Sweep axes: lock mode x clients x max batch per drain. On the
//    earlier 1-CORE container, BLOCKING + oversubscription was the
//    pipeline's home turf (direct collapsed 14.0 -> 3.9 Mops from 1 to
//    16 clients while the combiner kept one thread in the store: piped
//    was 1.48x direct at 16 clients). On 4 cores (4-CPU Xeon VM, gcc
//    12.2 -O2, 2026-10-17) no (clients, batch, mode) point of the full
//    sweep beat direct by 1.1x: with closed-loop calls still routed
//    through the combiner, piped/direct was 0.30-0.58x at batch 8/32 and
//    0.84-1.04x at batch 1 (which then ran inline). That sweep is why
//    closed-loop calls now run on the caller's thread.
//
// Per point, alongside the Mops pair, the run reports the service's
// own accounting over the piped chunks: mean/max batch size actually
// formed, ring-full rejections, and the log2 batch-size and drain-time
// queue-depth histograms (one CSV row per non-empty bucket, see
// print_hist). Each async client holds one request at a time, so a
// batch can never exceed the client count.
//
// Knobs: FLOCK_SVC_KEYS (16384), FLOCK_SVC_CHUNK (2000000 ops/side/round),
// FLOCK_SVC_ROUNDS (3), FLOCK_SVC_RING (1024 slots/ring), FLOCK_SVC_POINTS
// (comma-separated substrings; run only matching points, e.g. "bl_c8,b1").
// JSON series go to BENCH_service.json (FLOCK_BENCH_JSON overrides).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "service/service.hpp"
#include "store/sharded_map.hpp"
#include "workload/driver.hpp"
#include "workload/zipf.hpp"

namespace {

using store_t = flock_store::sharded_map<uint64_t, uint64_t, false>;
using svc_t = flock_service::service<uint64_t, uint64_t, false>;

struct stream {
  std::vector<uint64_t> keys;
  std::vector<uint16_t> opv;  // per-position op draw in [0, 1000)
};

// The piped side's async client: one request in flight, submitted to
// the key's ring, and drained by the submitter itself (or by whichever
// client holds the combiner lock) until its completion publishes.
struct piped_client {
  svc_t& svc;

  bool call(flock_service::op_kind kind, uint64_t k, uint64_t v,
            uint64_t* found = nullptr) {
    flock_service::completion<uint64_t> c;
    c.arm();
    const std::size_t ri = svc.ring_of(k);
    while (!svc.try_submit({kind, k, v, &c})) svc.drain(ri);
    while (!c.ready())
      if (svc.drain(ri) == 0) std::this_thread::yield();
    if (found != nullptr) *found = c.value;
    return c.ok;
  }
  bool insert(uint64_t k, uint64_t v) {
    return call(flock_service::op_kind::insert, k, v);
  }
  bool remove(uint64_t k) { return call(flock_service::op_kind::remove, k, 0); }
  std::optional<uint64_t> find(uint64_t k) {
    uint64_t v = 0;
    if (!call(flock_service::op_kind::find, k, 0, &v)) return std::nullopt;
    return v;
  }
};

// One timed chunk: `clients` closed-loop threads split the chunk evenly,
// all released by one barrier, wall-clocked to the last join. The mixed
// draw is 25% insert / 25% remove / 50% find — the 50%-update mixed
// point the pipeline has to survive (a read-only sweep would flatter
// it: writes are where the bucket locks, and therefore the blocking
// collapse, live).
// The op loop is templated over the target so the direct and piped
// sides compile as SEPARATE instantiations. With a runtime `svc ?`
// branch inside one shared worker lambda, the inliner ran out of budget
// for the svc chain and the piped side paid an out-of-line call per op
// (~25% at batch=1) that the service doesn't actually cost — the A in
// an A/B duel must not decide how well the B side compiles.
template <class Target>
double run_chunk_on(Target& tgt, const stream& st, long base, long chunk,
                    int clients) {
  const long per = chunk / clients;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<uint64_t> sink{0};
  auto worker = [&](int t) {
    const std::size_t mask = st.keys.size() - 1;
    uint64_t local = 0;
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (long i = 0; i < per; i++) {
      const std::size_t j =
          static_cast<std::size_t>(base + t * per + i) & mask;
      const uint64_t k = st.keys[j];
      const uint16_t o = st.opv[j];
      if (o < 250)
        tgt.insert(k, k + 1);
      else if (o < 500)
        tgt.remove(k);
      else
        local += tgt.find(k).has_value();
    }
    sink.fetch_add(local);
  };
  std::vector<std::thread> ts;
  ts.reserve(clients);
  for (int t = 0; t < clients; t++) ts.emplace_back(worker, t);
  while (ready.load() != clients) std::this_thread::yield();
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : ts) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  const double sec = std::chrono::duration<double>(t1 - t0).count();
  return sec > 0 ? static_cast<double>(per) * clients / sec / 1e6 : 0.0;
}

double run_chunk(store_t& store, svc_t* svc, const stream& st, long base,
                 long chunk, int clients) {
  if (svc != nullptr) {
    piped_client pc{*svc};
    return run_chunk_on(pc, st, base, chunk, clients);
  }
  return run_chunk_on(store, st, base, chunk, clients);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// FLOCK_SVC_POINTS: comma-separated substrings; a point runs when any
// one matches (empty/unset runs everything). Iteration aid — a filtered
// run still advances the shared op stream only through the points it
// runs, so absolute numbers shift slightly vs the full sweep.
bool point_selected(const std::string& point) {
  const char* env = std::getenv("FLOCK_SVC_POINTS");
  if (env == nullptr || *env == '\0') return true;
  std::string spec(env);
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string tok =
        spec.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!tok.empty() && point.find(tok) != std::string::npos) return true;
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return false;
}

void print_hist(const std::string& point, const char* which,
                const flock_service::histogram& h) {
  for (int b = 0; b < flock_service::histogram::kBuckets; b++)
    if (h.count(b) != 0)
      std::printf("pr10_hist,%s,%s,%d,%llu\n", point.c_str(), which, b,
                  static_cast<unsigned long long>(h.count(b)));
}

}  // namespace

int main() {
  const uint64_t range =
      static_cast<uint64_t>(bench::env_long("FLOCK_SVC_KEYS", 16384));
  const long chunk = bench::env_long("FLOCK_SVC_CHUNK", 2000000);
  const int rounds = static_cast<int>(bench::env_long("FLOCK_SVC_ROUNDS", 3));
  const std::size_t ring_cap =
      static_cast<std::size_t>(bench::env_long("FLOCK_SVC_RING", 1024));

  // Deterministic streams, shared by every point: zipf(0.99) keys over
  // [0, range) — half absent after prefill — plus a per-position op draw.
  const std::size_t kStream = std::size_t{1} << 20;
  stream st;
  st.keys.resize(kStream);
  st.opv.resize(kStream);
  flock_workload::zipf_distribution dist(range, 0.99);
  flock_workload::rng64 krng(42), orng(7);
  for (auto& k : st.keys) k = dist.sample(krng);
  for (auto& o : st.opv) o = static_cast<uint16_t>(orng.next() % 1000);

  bench::json_reporter rep;
  bool invariants_ok = true;
  for (bool blocking : {false, true}) {
    flock::set_blocking(blocking);
    const char* mode = blocking ? "bl" : "lf";
    // A fresh store per lock mode (nodes and lock words are created and
    // consumed under one mode for the mode's whole duel).
    store_t store(8, range);
    flock_workload::prefill_half(store, range);
    long pos = 0;
    for (int clients : {1, 2, 4, 8, 16}) {
      for (int batch : {1, 8, 32}) {
        const std::string point = std::string(mode) + "_c" +
                                  std::to_string(clients) + "_b" +
                                  std::to_string(batch);
        const std::string prefix = "pr10_svc_" + point + "_";
        if (!point_selected(point)) continue;
        std::fprintf(stderr, "point %s\n", point.c_str());
        svc_t::options o;
        o.ring_capacity = ring_cap;
        o.max_batch = static_cast<std::size_t>(batch);
        svc_t svc(store, o);
        // Warmup: one untimed chunk per side at this point's shape.
        run_chunk(store, nullptr, st, pos, chunk, clients);
        pos += chunk;
        run_chunk(store, &svc, st, pos, chunk, clients);
        pos += chunk;
        const flock::stats_snapshot s0 = flock::stats();
        std::vector<double> direct, piped;
        for (int r = 0; r < rounds; r++) {
          direct.push_back(run_chunk(store, nullptr, st, pos, chunk, clients));
          pos += chunk;
          piped.push_back(run_chunk(store, &svc, st, pos, chunk, clients));
          pos += chunk;
        }
        const flock::stats_snapshot s1 = flock::stats();
        const double dm = median(direct), pm = median(piped);
        rep.add(prefix + "direct_mops", dm);
        rep.add(prefix + "piped_mops", pm);
        rep.add(prefix + "speedup", dm > 0 ? pm / dm : 0.0);
        const uint64_t batches = s1.svc_batches - s0.svc_batches;
        const uint64_t ops = s1.svc_batch_ops - s0.svc_batch_ops;
        rep.add(prefix + "mean_batch",
                batches != 0 ? static_cast<double>(ops) / batches : 0.0);
        rep.add(prefix + "ring_full",
                static_cast<double>(s1.svc_ring_full - s0.svc_ring_full));
        print_hist(point, "batch", svc.batch_histogram());
        print_hist(point, "depth", svc.depth_histogram());
      }
    }
    invariants_ok = invariants_ok && store.check_invariants();
  }
  rep.add("pr10_invariants_ok", invariants_ok ? 1.0 : 0.0);
  rep.write("BENCH_service.json");
  flock::epoch_manager::instance().flush();
  return 0;
}
