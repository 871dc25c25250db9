// perfbench — the repository benchmark. Closed-loop zipf load on a
// flock_store::sharded_map, called directly or through
// flock_service::service, with sampled per-op latency, output checks, and
// a traced mode that yields the per-layer ledger (service / store / ds /
// flock). run.py builds and drives this binary; BENCHMARK.json names the
// workloads and metrics and says why each was chosen.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --threads T --spans FILE
//
// run.py always passes --threads as the usable CPUs minus one.
//
// Prints one JSON object on stdout and exits 1 if an output check failed.
//
// A run: generate per-thread op streams from the seed (untimed), then
// kRounds rounds, each of which builds and prefills a fresh store (timed:
// setup_s is the median over rounds), warms it up, measures
// kWindowsPerRound equal windows and checks the store. Throughput is the
// median over all windows. Measuring several stores per run matters on a
// shared machine: one process's level can sit 10% off another's while its
// own windows agree, so a single store per run makes runs disagree. With
// --trace 0 every window is untraced; with --trace 1 untraced and traced
// windows alternate, so the traced/untraced throughput ratio compares
// neighbouring windows. All tracing lives in this file: spans are recorded
// around the calls the benchmark makes into each layer, never inside src/.
#include <sys/resource.h>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "flock/flock.hpp"
#include "service/service.hpp"
#include "store/sharded_map.hpp"
#include "workload/driver.hpp"
#include "workload/zipf.hpp"

#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace {

using map_t = flock_store::sharded_map<uint64_t, uint64_t>;
using svc_t = flock_service::service<uint64_t, uint64_t>;
using flock_workload::splitmix64;

struct workload {
  const char* name;
  bool blocking;      // flock lock mode for the whole run
  bool service;       // ops go through flock_service::service
  uint64_t range;     // keys are [1, range]
  unsigned find_pct;  // the rest split evenly between insert and remove
};

constexpr workload kWorkloads[] = {
    {"read_zipf", false, false, 1000000, 95},
    {"update_zipf", false, false, 100000, 50},
    {"update_zipf_blocking", true, false, 100000, 50},
    {"service_mixed", false, true, 100000, 80},
};

constexpr double kZipfAlpha = 0.99;
constexpr std::size_t kShards = 8;
constexpr int kRounds = 5;
constexpr int kWindowsPerRound = 4;
// Odd length: the power-of-two sampling masks below then land on every
// stream position over successive passes instead of the same 1/64th.
constexpr std::size_t kStreamLen = (std::size_t{1} << 20) + 1;
constexpr std::size_t kDigestCheckLen = 4096;
constexpr uint64_t kLatencyMask = 63;   // untraced: 1 op in 64 timed
constexpr uint64_t kTraceMask = 1023;   // traced: 1 op in 1024 spanned
constexpr uint64_t kProbeMask = 4095;   // traced: runtime probe per 4096 ops
constexpr std::size_t kSpanCap = std::size_t{1} << 18;  // per thread
constexpr std::size_t kReservoirCap = std::size_t{1} << 18;  // per thread+kind

// ---- clock -----------------------------------------------------------------
// Spans and latency samples are read from the TSC (a few ns per read,
// against ~20 ns for steady_clock::now() — comparable to a memoized find)
// and converted to ns with a factor measured against steady_clock over the
// whole run.

inline uint64_t ticks() {
  std::atomic_signal_fence(std::memory_order_seq_cst);
#if defined(__x86_64__)
  const uint64_t t = __rdtsc();
#else
  const uint64_t t = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
  std::atomic_signal_fence(std::memory_order_seq_cst);
  return t;
}

using steady = std::chrono::steady_clock;

double seconds_between(steady::time_point a, steady::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- op streams --------------------------------------------------------------

enum op_kind : uint64_t { kFind = 0, kInsert = 1, kRemove = 2 };
constexpr int kKindShift = 62;
constexpr uint64_t kKeyMask = (uint64_t{1} << kKindShift) - 1;

inline uint64_t key_of(uint64_t op) { return op & kKeyMask; }
inline op_kind kind_of(uint64_t op) { return op_kind(op >> kKindShift); }

std::vector<uint64_t> make_stream(const flock_workload::zipf_distribution& d,
                                  const workload& w, uint64_t seed, int t,
                                  std::size_t len) {
  flock_workload::rng64 rng(splitmix64(splitmix64(seed) + uint64_t(t) + 1));
  std::vector<uint64_t> s(len);
  for (uint64_t& op : s) {
    const uint64_t k = d.sample(rng);
    // r in [0, 200): finds take 2*find_pct values; the rest is an even
    // count, split by parity, so inserts and removes are equally likely.
    const uint64_t r = rng.next(200);
    const op_kind kind = r < 2 * w.find_pct ? kFind
                         : (r & 1) != 0     ? kInsert
                                            : kRemove;
    op = k | (uint64_t(kind) << kKindShift);
  }
  return s;
}

uint64_t digest(const uint64_t* ops, std::size_t n, uint64_t h = 0) {
  for (std::size_t i = 0; i < n; i++) h = splitmix64(h ^ ops[i]);
  return h;
}

// ---- spans -------------------------------------------------------------------

enum span_name : uint32_t {
  kOp,
  kServiceFind,
  kServiceUpdate,
  kStoreFind,
  kDsFind,
  kDsUpdate,
  kProbe,
  kTryLock,
  kWithEpoch,
  kLoggedRw,
  kSpanNames
};
constexpr const char* kSpanName[kSpanNames] = {
    "op",       "service.find", "service.update", "store.find",
    "ds.find",  "ds.update",    "probe",          "flock.try_lock",
    "flock.with_epoch", "flock.logged_rw"};

struct span {
  uint64_t op;      // op id, shared by every span of one op
  uint64_t t0, t1;  // ticks
  uint32_t name;    // span_name
  int32_t parent;   // buffer index of the op's root span; -1 for a root
};

// ---- workers -----------------------------------------------------------------

struct counts {
  uint64_t ops = 0;         // stream ops completed
  uint64_t probe_finds = 0; // extra traced-run finds on an op's key
  uint64_t updates = 0;
  uint64_t inserts_ok = 0;
  uint64_t removes_ok = 0;
  uint64_t bad_values = 0;  // find hits with v != k
};

struct cache_counts {
  uint64_t hits = 0, lookups = 0, invalidated = 0;
};

cache_counts read_cache_counts() {
  const auto& c = flock_store::tls_read_cache<uint64_t, uint64_t>().counters();
  return {c.hits, c.hits + c.misses + c.invalidated, c.invalidated};
}

// Latency samples in fixed, pre-faulted memory (Algorithm R: a uniform
// sample of everything offered), so peak RSS does not grow with throughput.
struct reservoir {
  std::vector<uint32_t> v = std::vector<uint32_t>(kReservoirCap);
  uint64_t seen = 0;
  flock_workload::rng64 rng;

  explicit reservoir(uint64_t seed) : rng(seed) {}
  void add(uint32_t x) {
    if (seen < kReservoirCap) {
      v[seen] = x;
    } else {
      const uint64_t j = rng.next(seen + 1);
      if (j < kReservoirCap) v[j] = x;
    }
    seen++;
  }
  std::size_t size() const { return seen < kReservoirCap ? seen : kReservoirCap; }
};

struct alignas(64) worker {
  int id;
  std::vector<uint64_t> stream;
  std::size_t pos = 0;
  uint64_t n = 0;  // ops issued by this thread, the sampling clock
  counts c;
  cache_counts cache;  // accumulated over untraced measured windows
  reservoir find_lat, update_lat;  // ticks, untraced windows

  worker(int i, uint64_t seed)
      : id(i),
        find_lat(splitmix64(seed ^ (2 * uint64_t(i) + 1))),
        update_lat(splitmix64(seed ^ (2 * uint64_t(i) + 2))) {}
  std::vector<span> spans;
  uint64_t spans_dropped = 0;
  uint64_t next_op_id = 0;
  uint64_t traced_ops = 0;  // picks the probe order of each traced op
  flock::lock probe_lock;
  flock::mutable_<uint64_t>* probe_cell = nullptr;
  uint64_t rw_ticks[2] = {0, 0};
};

inline void check_find(worker& w, uint64_t k, const std::optional<uint64_t>& r) {
  if (r.has_value() && *r != k) w.c.bad_values++;
}

// One stream op through the workload's front end (the store itself, or
// the service over it).
template <class Front>
inline void exec(worker& w, Front& f, uint64_t op) {
  const uint64_t k = key_of(op);
  switch (kind_of(op)) {
    case kFind:
      check_find(w, k, f.find(k));
      break;
    case kInsert:
      w.c.updates++;
      if (f.insert(k, k)) w.c.inserts_ok++;
      break;
    case kRemove:
      w.c.updates++;
      if (f.remove(k)) w.c.removes_ok++;
      break;
  }
  w.c.ops++;
}

inline uint32_t clamp32(uint64_t v) {
  return v > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(v);
}

struct tracer {
  worker& w;
  uint64_t op_id;
  int32_t root;

  tracer(worker& wk, span_name name)
      : w(wk),
        op_id((uint64_t(wk.id) << 48) | wk.next_op_id++),
        root(static_cast<int32_t>(wk.spans.size())) {
    w.spans.push_back({op_id, ticks(), 0, name, -1});
  }
  ~tracer() { w.spans[root].t1 = ticks(); }
  void child(span_name name, uint64_t t0, uint64_t t1) {
    w.spans.push_back({op_id, t0, t1, name, root});
  }
  template <class F>
  auto time(span_name name, F&& f) {
    const uint64_t t0 = ticks();
    auto r = f();
    child(name, t0, ticks());
    return r;
  }
};

// A sampled op in a traced window. The op itself runs as it would
// untraced, inside its layer's span; finds also probe the lower layers on
// the same key so stacked layers can be differenced per op. Two bits of a
// per-thread count order the probes: bit 0 puts store.find before or after
// ds.find, bit 1 puts service.find before or after both. Each differenced
// pair thus runs in each order on half the ops, and neither layer always
// gets the cache-warm later call.
template <class Front>
void traced_op(worker& w, map_t& m, Front& f, uint64_t op) {
  constexpr bool kService = std::is_same_v<Front, svc_t>;
  if (w.spans.size() + 8 > kSpanCap) {
    w.spans_dropped++;
    exec(w, f, op);
    return;
  }
  const uint64_t k = key_of(op);
  auto& shard = m.shard(m.shard_of(k));
  tracer tr(w, kOp);
  const uint64_t seq = w.traced_ops++;
  const bool alt = (seq & 1) != 0;
  if (kind_of(op) == kFind) {
    w.c.ops++;
    auto ds_probe = [&] {
      w.c.probe_finds++;
      check_find(w, k, tr.time(kDsFind, [&] { return shard.find(k); }));
    };
    auto svc_probe = [&] {
      if constexpr (kService) {
        check_find(w, k, tr.time(kServiceFind, [&] { return f.find(k); }));
        w.c.probe_finds++;  // the store.find repeats the op's find
      }
    };
    const bool svc_last = (seq & 2) != 0;
    if (!svc_last) svc_probe();
    if (alt) ds_probe();
    check_find(w, k, tr.time(kStoreFind, [&] { return m.find(k); }));
    if (!alt) ds_probe();
    if (svc_last) svc_probe();
    return;
  }
  // Updates cannot be repeated on the same key without changing the
  // store, so each sampled update is timed at one layer. On the service
  // workload alternate ops go straight to the shard, so ds.update is
  // measured under service load too.
  w.c.updates++;
  w.c.ops++;
  const bool ins = kind_of(op) == kInsert;
  bool ok;
  if (kService && !alt)
    ok = tr.time(kServiceUpdate,
                 [&] { return ins ? f.insert(k, k) : f.remove(k); });
  else
    ok = tr.time(kDsUpdate,
                 [&] { return ins ? shard.insert(k, k) : shard.remove(k); });
  if (ok) (ins ? w.c.inserts_ok : w.c.removes_ok)++;
}

// Uncontended runtime costs in the workload's own cache state: an empty
// epoch region, a try_lock cycle on a lock no other thread knows, and the
// logged load+store its thunk performs (raw in blocking mode, where the
// thunk runs unlogged). The thunk captures pointers by value; with a
// private lock it is never helped, so it runs exactly once.
void probe_runtime(worker& w) {
  if (w.spans.size() + 8 > kSpanCap) {
    w.spans_dropped++;
    return;
  }
  tracer tr(w, kProbe);
  const uint64_t a = ticks();
  flock::with_epoch([] { return true; });
  const uint64_t b = ticks();
  flock::with_epoch([&] {
    return flock::try_lock(w.probe_lock,
                           [x = w.probe_cell, t = w.rw_ticks] {
                             t[0] = ticks();
                             x->store(x->load() + 1);
                             t[1] = ticks();
                             return true;
                           });
  });
  const uint64_t c = ticks();
  tr.child(kWithEpoch, a, b);
  tr.child(kTryLock, b, c);
  tr.child(kLoggedRw, w.rw_ticks[0], w.rw_ticks[1]);
}

struct control {
  std::atomic<int> go{0};  // number of the window workers may run
  std::atomic<bool> stop{false};
  std::atomic<int> done{0};
};

template <bool Traced, class Front>
void run_window(worker& w, map_t& m, Front& f, const control& ctl) {
  const uint64_t* s = w.stream.data();
  const std::size_t len = w.stream.size();
  std::size_t pos = w.pos;
  // mo: relaxed — the stop flag only ends the loop; results are published
  // to the controller through `done`.
  while (!ctl.stop.load(std::memory_order_relaxed)) {
    const uint64_t op = s[pos];
    if (++pos == len) pos = 0;
    const uint64_t n = w.n++;
    if constexpr (Traced) {
      if ((n & kTraceMask) == 0) {
        traced_op(w, m, f, op);
        continue;
      }
      if ((n & kProbeMask) == 1) probe_runtime(w);
    } else {
      if ((n & kLatencyMask) == 0) {
        const uint64_t t0 = ticks();
        exec(w, f, op);
        const uint32_t dt = clamp32(ticks() - t0);
        (kind_of(op) == kFind ? w.find_lat : w.update_lat).add(dt);
        continue;
      }
    }
    exec(w, f, op);
  }
  w.pos = pos;
}

// ---- statistics -------------------------------------------------------------

template <class T>
double percentile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = lo + 1 < v.size() ? lo + 1 : lo;
  return double(v[lo]) + (idx - double(lo)) * (double(v[hi]) - double(v[lo]));
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

double max_rss_mib() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

struct json_out {
  std::string s;
  bool first = true;
  void key(const char* k) {
    s += first ? "" : ",";
    first = false;
    s += '"';
    s += k;
    s += "\":";
  }
  void num(const char* k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    key(k);
    s += buf;
  }
  void u64(const char* k, uint64_t v) {
    key(k);
    s += std::to_string(v);
  }
  void str(const char* k, const std::string& v) {
    key(k);
    s += '"';
    for (char ch : v) {
      if (ch == '"' || ch == '\\') s += '\\';
      s += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
    }
    s += '"';
  }
  void boolean(const char* k, bool v) {
    key(k);
    s += v ? "true" : "false";
  }
  void open(const char* k) {
    key(k);
    s += '{';
    first = true;
  }
  void close() {
    s += '}';
    first = false;
  }
  void array(const char* k, const std::vector<double>& v) {
    key(k);
    s += '[';
    for (std::size_t i = 0; i < v.size(); i++) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    s += ']';
  }
};

// ---- run ---------------------------------------------------------------------

struct options {
  const workload* w = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 0;
  std::string spans_path;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --threads T [--spans FILE]\n",
               msg);
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      for (const workload& w : kWorkloads)
        if (std::strcmp(w.name, v) == 0) o.w = &w;
      if (o.w == nullptr) usage("unknown workload");
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0 && o.seconds <= 600))
        usage("bad --seconds");
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("bad --trace");
      o.trace = v[0] == '1';
    } else if (a == "--threads") {
      o.threads = static_cast<int>(std::strtol(v, &end, 10));
      if (*end != '\0' || o.threads < 1 || o.threads > 256)
        usage("bad --threads");
    } else if (a == "--spans") {
      o.spans_path = v;
    } else {
      usage("unknown option");
    }
  }
  if (o.w == nullptr || o.threads == 0) usage("--workload and --threads are required");
  if (o.trace && o.spans_path.empty()) usage("--trace 1 needs --spans");
  return o;
}

struct window_result {
  bool traced = false;
  double secs = 0;
  counts c;
  flock::stats_snapshot st;  // delta over the window
};

counts sum_counts(const std::vector<std::unique_ptr<worker>>& ws) {
  counts s;
  for (const auto& w : ws) {
    s.ops += w->c.ops;
    s.probe_finds += w->c.probe_finds;
    s.updates += w->c.updates;
    s.inserts_ok += w->c.inserts_ok;
    s.removes_ok += w->c.removes_ok;
    s.bad_values += w->c.bad_values;
  }
  return s;
}

counts minus(const counts& a, const counts& b) {
  return {a.ops - b.ops,
          a.probe_finds - b.probe_finds,
          a.updates - b.updates,
          a.inserts_ok - b.inserts_ok,
          a.removes_ok - b.removes_ok,
          a.bad_values - b.bad_values};
}

flock::stats_snapshot minus(const flock::stats_snapshot& a,
                            const flock::stats_snapshot& b) {
  flock::stats_snapshot d = a;
  d.descriptors_created -= b.descriptors_created;
  d.helps_attempted -= b.helps_attempted;
  d.helps_run -= b.helps_run;
  d.descriptors_reused -= b.descriptors_reused;
  d.helps_avoided -= b.helps_avoided;
  d.backoff_spins -= b.backoff_spins;
  d.svc_batches -= b.svc_batches;
  d.svc_batch_ops -= b.svc_batch_ops;
  d.svc_ring_full -= b.svc_ring_full;
  return d;  // svc_batch_max / svc_depth_hw are high-water marks
}

void add(flock::stats_snapshot& a, const flock::stats_snapshot& d) {
  a.descriptors_created += d.descriptors_created;
  a.helps_attempted += d.helps_attempted;
  a.helps_run += d.helps_run;
  a.descriptors_reused += d.descriptors_reused;
  a.helps_avoided += d.helps_avoided;
  a.backoff_spins += d.backoff_spins;
  a.svc_batches += d.svc_batches;
  a.svc_batch_ops += d.svc_batch_ops;
  a.svc_ring_full += d.svc_ring_full;
}

template <class Front>
std::vector<window_result> measure(const options& o, map_t& m, Front& f,
                                   std::vector<std::unique_ptr<worker>>& ws,
                                   double warmup_s) {
  // Window 0 warms caches and the store's steady state and is discarded.
  const int nwin = kWindowsPerRound + 1;
  auto traced = [&](int win) { return o.trace && win > 0 && win % 2 == 0; };
  control ctl;
  std::vector<std::thread> ts;
  for (auto& wp : ws)
    ts.emplace_back([&, w = wp.get()] {
      w->probe_cell = flock::pool_new<flock::mutable_<uint64_t>>();
      w->probe_cell->init(0);
      for (int win = 0; win < nwin; win++) {
        // mo: acquire — pairs with the controller's release of `go`, which
        // follows its reset of `stop`.
        while (ctl.go.load(std::memory_order_acquire) != win + 1)
          std::this_thread::yield();
        const cache_counts c0 = read_cache_counts();
        if (traced(win))
          run_window<true>(*w, m, f, ctl);
        else
          run_window<false>(*w, m, f, ctl);
        const cache_counts c1 = read_cache_counts();
        if (win > 0 && !traced(win)) {
          w->cache.hits += c1.hits - c0.hits;
          w->cache.lookups += c1.lookups - c0.lookups;
          w->cache.invalidated += c1.invalidated - c0.invalidated;
        }
        // mo: release — publishes this window's counters to the controller.
        ctl.done.fetch_add(1, std::memory_order_release);
      }
      flock::pool_delete(w->probe_cell);
    });

  std::vector<window_result> out;
  const double win_s = o.seconds / (kRounds * kWindowsPerRound);
  for (int win = 0; win < nwin; win++) {
    const counts c0 = sum_counts(ws);
    const flock::stats_snapshot s0 = flock::stats();
    // mo: relaxed (both) — ordered before the release store of `go`.
    ctl.stop.store(false, std::memory_order_relaxed);
    ctl.done.store(0, std::memory_order_relaxed);
    const steady::time_point t0 = steady::now();
    ctl.go.store(win + 1, std::memory_order_release);
    std::this_thread::sleep_until(
        t0 + std::chrono::duration<double>(win == 0 ? warmup_s : win_s));
    // mo: relaxed — workers only need to see it eventually.
    ctl.stop.store(true, std::memory_order_relaxed);
    // mo: acquire — pairs with each worker's release of `done`.
    while (ctl.done.load(std::memory_order_acquire) != int(ws.size()))
      std::this_thread::yield();
    const steady::time_point t1 = steady::now();
    if (win == 0) continue;
    window_result r;
    r.traced = traced(win);
    r.secs = seconds_between(t0, t1);
    r.c = minus(sum_counts(ws), c0);
    r.st = minus(flock::stats(), s0);
    out.push_back(r);
  }
  for (auto& t : ts) t.join();
  return out;
}

struct span_stats {
  std::vector<double> dur[kSpanNames];  // ticks
  std::vector<double> svc_overhead;     // service.find - store.find, same op
  std::vector<double> memo_net;         // store.find - ds.find, same op
  std::vector<double> root_self;        // op span minus its children
};

span_stats collect_spans(const std::vector<std::unique_ptr<worker>>& ws) {
  span_stats s;
  for (const auto& w : ws) {
    const auto& sp = w->spans;
    for (std::size_t i = 0; i < sp.size();) {
      // A root is followed by its children (spans are appended in order).
      std::size_t j = i + 1;
      double kids = 0, svc = -1, store = -1, ds = -1;
      for (; j < sp.size() && sp[j].parent == int32_t(i); j++) {
        const double d = double(sp[j].t1 - sp[j].t0);
        s.dur[sp[j].name].push_back(d);
        kids += d;
        if (sp[j].name == kServiceFind) svc = d;
        if (sp[j].name == kStoreFind) store = d;
        if (sp[j].name == kDsFind) ds = d;
      }
      const double root = double(sp[i].t1 - sp[i].t0);
      s.dur[sp[i].name].push_back(root);
      if (sp[i].name == kOp) s.root_self.push_back(root - kids);
      if (svc >= 0 && store >= 0) s.svc_overhead.push_back(svc - store);
      if (store >= 0 && ds >= 0) s.memo_net.push_back(store - ds);
      i = j;
    }
  }
  return s;
}

bool write_spans(const std::string& path,
                 const std::vector<std::unique_ptr<worker>>& ws,
                 uint64_t tick0, double ns_per_tick) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,span,parent,op,name,start_ns,end_ns\n");
  for (const auto& w : ws)
    for (std::size_t i = 0; i < w->spans.size(); i++) {
      const span& s = w->spans[i];
      std::fprintf(f, "%d,%zu,%d,%" PRIu64 ",%s,%.1f,%.1f\n", w->id, i,
                   s.parent, s.op, kSpanName[s.name],
                   double(s.t0 - tick0) * ns_per_tick,
                   double(s.t1 - tick0) * ns_per_tick);
    }
  return std::fclose(f) == 0;
}

void ledger_entry(json_out& j, const char* name, std::vector<double>& v,
                  double ns) {
  j.open(name);
  j.u64("count", v.size());
  if (!v.empty()) {
    double sum = 0;
    for (double x : v) sum += x;
    j.num("mean_ns", sum / double(v.size()) * ns);
    j.num("p50_ns", percentile(v, 0.50) * ns);
    j.num("p90_ns", percentile(v, 0.90) * ns);
    j.num("p99_ns", percentile(v, 0.99) * ns);
    if (v.size() >= 10000) j.num("p999_ns", percentile(v, 0.999) * ns);
  }
  j.close();
}

int run(const options& o) {
  const workload& w = *o.w;
  flock::set_blocking(w.blocking);
  const int T = o.threads;

  // Inputs: zipf scramble and per-thread streams, all from the seed.
  flock_workload::zipf_distribution dist(w.range, kZipfAlpha, o.seed);
  std::vector<std::unique_ptr<worker>> ws;
  for (int t = 0; t < T; t++) ws.push_back(std::make_unique<worker>(t, o.seed));
  {
    std::vector<std::thread> gen;
    for (int t = 0; t < T; t++)
      gen.emplace_back([&, t] {
        worker& wk = *ws[t];
        wk.stream = make_stream(dist, w, o.seed, t, kStreamLen);
        if (o.trace) {
          // Fault the buffer in now, not during the traced windows.
          wk.spans.resize(kSpanCap);
          wk.spans.clear();
        }
      });
    for (auto& t : gen) t.join();
  }
  uint64_t stream_digest = 0;
  for (const auto& wk : ws)
    stream_digest = digest(wk->stream.data(), wk->stream.size(), stream_digest);
  // Seed self-check on a prefix of thread 0's stream: the same seed must
  // regenerate it, a different seed must not.
  const uint64_t d0 = digest(ws[0]->stream.data(), kDigestCheckLen);
  const auto again = make_stream(dist, w, o.seed, 0, kDigestCheckLen);
  flock_workload::zipf_distribution other_dist(w.range, kZipfAlpha, o.seed + 1);
  const auto other = make_stream(other_dist, w, o.seed + 1, 0, kDigestCheckLen);
  const bool digest_same = digest(again.data(), kDigestCheckLen) == d0;
  const bool digest_differs = digest(other.data(), kDigestCheckLen) != d0;

  // The benchmark's own memory (streams, reservoirs, span buffers) is
  // resident by now; peak_rss_mib is the peak above this baseline, so it
  // covers the stores, the runtime's pools and the worker threads.
  const double base_rss_mib = max_rss_mib();

  // Rounds: each sets up a fresh store (timed: construction plus prefill;
  // tear-down is not), measures it, and checks it at quiescence.
  std::vector<double> setup_runs;
  std::vector<window_result> wins;
  uint64_t prefilled = 0, expected = 0, resident = 0, size_err = 0;
  uint64_t setup_grows = 0, grows = 0, buckets = 0;
  bool invariants = true;
  const double warmup_s = std::clamp(o.seconds / 40, 0.2, 0.5);
  const steady::time_point c0 = steady::now();
  const uint64_t tick0 = ticks();
  for (int r = 0; r < kRounds; r++) {
    const steady::time_point t0 = steady::now();
    auto store = std::make_unique<map_t>(kShards);
    flock_workload::prefill_half(*store, w.range, T);
    setup_runs.push_back(seconds_between(t0, steady::now()));
    map_t& m = *store;
    const uint64_t pre = m.size();  // exact: the prefill threads have joined
    setup_grows = m.grow_count();
    const counts before = sum_counts(ws);
    std::vector<window_result> rw;
    if (w.service) {
      svc_t svc(m);
      rw = measure(o, m, svc, ws, warmup_s);
    } else {
      rw = measure(o, m, m, ws, warmup_s);
    }
    wins.insert(wins.end(), rw.begin(), rw.end());
    const counts d = minus(sum_counts(ws), before);
    const uint64_t want = pre + d.inserts_ok - d.removes_ok;
    const uint64_t have = m.size();
    prefilled += pre;
    expected += want;
    resident += have;
    size_err += have > want ? have - want : want - have;
    if (!m.check_invariants()) invariants = false;
    grows = m.grow_count();
    buckets = m.bucket_count();
    store.reset();
    flock::epoch_manager::instance().flush();
  }
  const double ns_per_tick =
      seconds_between(c0, steady::now()) * 1e9 / double(ticks() - tick0);

  const counts total = sum_counts(ws);
  const uint64_t attempted = total.ops + total.probe_finds;
  const uint64_t failed = total.bad_values + size_err +
                          (invariants ? 0 : 1) + (digest_same ? 0 : 1) +
                          (digest_differs ? 0 : 1);

  const double peak_rss_mib = max_rss_mib() - base_rss_mib;

  // End-to-end figures from the untraced windows.
  std::vector<double> mops_u, mops_t;
  counts cu;
  flock::stats_snapshot su;
  for (const window_result& r : wins) {
    (r.traced ? mops_t : mops_u).push_back(double(r.c.ops) / r.secs / 1e6);
    if (r.traced) continue;
    cu.ops += r.c.ops;
    cu.updates += r.c.updates;
    cu.inserts_ok += r.c.inserts_ok;
    cu.removes_ok += r.c.removes_ok;
    add(su, r.st);
  }
  std::vector<uint32_t> flat, ulat;
  uint64_t fseen = 0, useen = 0;
  for (const auto& wk : ws) {
    const auto& f = wk->find_lat;
    const auto& u = wk->update_lat;
    flat.insert(flat.end(), f.v.begin(), f.v.begin() + f.size());
    ulat.insert(ulat.end(), u.v.begin(), u.v.begin() + u.size());
    fseen += f.seen;
    useen += u.seen;
  }

  json_out j;
  j.s = "{";
  j.open("meta");
  j.str("workload", w.name);
  j.u64("seed", o.seed);
  j.num("seconds", o.seconds);
  j.u64("trace", o.trace);
  j.u64("threads", uint64_t(T));
  j.u64("hardware_concurrency", std::thread::hardware_concurrency());
  j.str("lock_mode", w.blocking ? "blocking" : "lock-free");
  j.str("front_end", w.service ? "service (flat-combining clients, 0 servers, "
                                 "default options)"
                               : "direct sharded_map calls");
  j.u64("key_range", w.range);
  j.u64("find_pct", w.find_pct);
  j.num("zipf_alpha", kZipfAlpha);
  j.u64("shards", kShards);
  j.u64("rounds", kRounds);
  j.u64("windows_per_round", kWindowsPerRound);
  j.num("warmup_s_per_round", warmup_s);
  j.u64("latency_sample_period", kLatencyMask + 1);
  j.u64("trace_sample_period", kTraceMask + 1);
  j.u64("runtime_probe_period", kProbeMask + 1);
  j.u64("stream_len_per_thread", kStreamLen);
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, stream_digest);
  j.str("stream_digest", hex);
  j.str("compiler", "g++ " __VERSION__);
  j.str("flags", PERFBENCH_FLAGS);
  j.num("ns_per_tick", ns_per_tick);
  j.num("baseline_rss_mib", base_rss_mib);
  j.close();

  j.open("e2e");
  j.num("throughput_mops", median(mops_u));
  j.num("find_p50_ns", percentile(flat, 0.50) * ns_per_tick);
  j.num("find_p99_ns", percentile(flat, 0.99) * ns_per_tick);
  j.num("update_p50_ns", percentile(ulat, 0.50) * ns_per_tick);
  j.num("update_p99_ns", percentile(ulat, 0.99) * ns_per_tick);
  j.num("setup_s", median(setup_runs));
  j.num("peak_rss_mib", peak_rss_mib);
  j.num("failed_op_ratio", ratio(double(failed), double(attempted)));
  j.close();

  j.open("samples");
  j.u64("find_latency", flat.size());
  j.u64("find_latency_offered", fseen);
  j.u64("update_latency", ulat.size());
  j.u64("update_latency_offered", useen);
  j.u64("throughput_windows", mops_u.size());
  j.u64("setup_rounds", setup_runs.size());
  j.close();
  j.array("window_mops_untraced", mops_u);
  j.array("window_mops_traced", mops_t);
  j.array("setup_runs_s", setup_runs);

  j.open("checks");
  j.u64("bad_values", total.bad_values);
  j.u64("prefilled", prefilled);
  j.u64("inserts_ok", total.inserts_ok);
  j.u64("removes_ok", total.removes_ok);
  j.u64("expected_size_sum", expected);
  j.u64("size_sum", resident);
  j.u64("size_mismatch", size_err);
  j.boolean("invariants", invariants);
  j.boolean("digest_same_seed_same", digest_same);
  j.boolean("digest_other_seed_differs", digest_differs);
  j.close();
  j.u64("attempted", attempted);
  j.u64("failed", failed);

  if (o.trace) {
    span_stats sp = collect_spans(ws);
    const double ns = ns_per_tick;
    const double ops = double(cu.ops);
    const double kops = ops / 1e3;
    cache_counts cc;
    uint64_t dropped = 0;
    for (const auto& wk : ws) {
      cc.hits += wk->cache.hits;
      cc.lookups += wk->cache.lookups;
      cc.invalidated += wk->cache.invalidated;
      dropped += wk->spans_dropped;
    }
    j.open("layers");
    j.num("service.overhead_ns.p50", percentile(sp.svc_overhead, 0.50) * ns);
    j.num("service.overhead_ns.p99", percentile(sp.svc_overhead, 0.99) * ns);
    j.num("service.batch_mean",
          ratio(double(su.svc_batch_ops), double(su.svc_batches)));
    j.num("service.ring_full_per_kop", ratio(double(su.svc_ring_full), kops));
    // A high-water mark for the process's life, which the runtime never
    // resets: it covers warmup, traced windows and every round.
    j.num("service.depth_hw", double(flock::stats().svc_depth_hw));
    j.num("store.find_ns.p50", percentile(sp.dur[kStoreFind], 0.50) * ns);
    j.num("store.find_ns.p99", percentile(sp.dur[kStoreFind], 0.99) * ns);
    j.num("store.cache_hit_ratio", ratio(double(cc.hits), double(cc.lookups)));
    j.num("store.cache_invalidated_ratio",
          ratio(double(cc.invalidated), double(cc.lookups)));
    j.num("ds.find_ns.p50", percentile(sp.dur[kDsFind], 0.50) * ns);
    j.num("ds.find_ns.p99", percentile(sp.dur[kDsFind], 0.99) * ns);
    j.num("ds.update_ns.p50", percentile(sp.dur[kDsUpdate], 0.50) * ns);
    j.num("ds.update_ns.p99", percentile(sp.dur[kDsUpdate], 0.99) * ns);
    j.num("ds.update_success_ratio",
          ratio(double(cu.inserts_ok + cu.removes_ok), double(cu.updates)));
    j.num("ds.grow_count", double(grows));
    j.num("ds.bucket_count", double(buckets));
    j.num("flock.descriptors_per_op", ratio(double(su.descriptors_created), ops));
    j.num("flock.descriptor_reuse_ratio",
          ratio(double(su.descriptors_reused), double(su.descriptors_created)));
    j.num("flock.helps_run_per_kop", ratio(double(su.helps_run), kops));
    j.num("flock.help_useful_ratio",
          ratio(double(su.helps_run), double(su.helps_attempted)));
    j.num("flock.helps_avoided_per_kop", ratio(double(su.helps_avoided), kops));
    j.num("flock.backoff_spins_per_op", ratio(double(su.backoff_spins), ops));
    j.num("flock.try_lock_ns.p50", percentile(sp.dur[kTryLock], 0.50) * ns);
    j.num("flock.with_epoch_ns.p50", percentile(sp.dur[kWithEpoch], 0.50) * ns);
    j.num("flock.logged_rw_ns.p50", percentile(sp.dur[kLoggedRw], 0.50) * ns);
    j.num("trace_overhead_ratio", ratio(median(mops_t), median(mops_u)));
    j.close();

    j.open("ledger");
    for (uint32_t n = 0; n < kSpanNames; n++)
      ledger_entry(j, kSpanName[n], sp.dur[n], ns);
    ledger_entry(j, "op.self", sp.root_self, ns);
    ledger_entry(j, "diff.service.find-store.find", sp.svc_overhead, ns);
    ledger_entry(j, "diff.store.find-ds.find", sp.memo_net, ns);
    j.u64("spans_dropped", dropped);
    j.u64("setup_grow_count", setup_grows);
    j.u64("untraced_ops", cu.ops);
    j.close();
    if (!write_spans(o.spans_path, ws, tick0, ns_per_tick)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.spans_path.c_str());
      return 2;
    }
  }
  j.s += "}";
  std::printf("%s\n", j.s.c_str());
  flock::epoch_manager::instance().flush();
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return run(parse(argc, argv)); }
