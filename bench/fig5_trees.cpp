// Figure 5 (panels a-h) — binary trees under a wide range of workloads:
// our leaftree in blocking and lock-free mode against the lock-free
// CAS-based baselines (Natarajan, Ellen). Bronson/Drachsler/Chromatic are
// external SetBench codebases; per ARCHITECTURE.md §5 their blocking-baseline
// role is played by the blocking-mode structures.
//
// Paper shapes to look for:
//  * a/e: scaling up to the core count, then blocking series fall off
//    under oversubscription while lock-free series keep going;
//  * b/f: updates are cheap out-of-cache (b), costly in-cache (f);
//  * c: higher alpha helps (locality) until contention bites;
//  * d/g: oversubscribed + skewed: lock-free wins big;
//  * h: small sizes oversubscribed: lock-free >> blocking.
#include <memory>

#include "harness.hpp"

int main() {
  using namespace bench;
  const uint64_t big = cfg().large_n;
  const uint64_t small = cfg().small_n;
  const int th = cfg().max_threads;
  const int ov = cfg().oversub_threads;
  std::fprintf(stderr,
               "fig5: trees (large=%llu, small=%llu, threads=%d, oversub=%d)\n",
               static_cast<unsigned long long>(big),
               static_cast<unsigned long long>(small), th, ov);
  std::printf("figure,series,x,mops\n");

  auto mk_leaftree = [] {
    return std::make_unique<flock_workload::leaftree_try>();
  };
  auto mk_nat = [] { return std::make_unique<flock_workload::natarajan>(); };
  auto mk_ellen = [] { return std::make_unique<flock_workload::ellen>(); };

  const std::vector<int> threads = thread_axis();
  const std::vector<double> updates = {0, 5, 10, 50};
  const std::vector<double> alphas = {0, 0.75, 0.9, 0.99};

  // Panel a: thread sweep, large tree, 50% updates, alpha .75.
  std::fprintf(stderr, "panel a\n");
  sweep_threads("fig5a", "leaftree-bl", mk_leaftree, true, big, 50, 0.75,
                threads);
  sweep_threads("fig5a", "leaftree-lf", mk_leaftree, false, big, 50, 0.75,
                threads);
  sweep_threads("fig5a", "natarajan", mk_nat, false, big, 50, 0.75, threads);
  sweep_threads("fig5a", "ellen", mk_ellen, false, big, 50, 0.75, threads);

  // Panel b: update sweep, large tree.
  std::fprintf(stderr, "panel b\n");
  sweep_updates("fig5b", "leaftree-bl", mk_leaftree, true, big, th, 0.75,
                updates);
  sweep_updates("fig5b", "leaftree-lf", mk_leaftree, false, big, th, 0.75,
                updates);
  sweep_updates("fig5b", "natarajan", mk_nat, false, big, th, 0.75, updates);
  sweep_updates("fig5b", "ellen", mk_ellen, false, big, th, 0.75, updates);

  // Panel c: zipf sweep, large tree, full subscription.
  std::fprintf(stderr, "panel c\n");
  sweep_alpha("fig5c", "leaftree-bl", mk_leaftree, true, big, th, 50, alphas);
  sweep_alpha("fig5c", "leaftree-lf", mk_leaftree, false, big, th, 50, alphas);
  sweep_alpha("fig5c", "natarajan", mk_nat, false, big, th, 50, alphas);
  sweep_alpha("fig5c", "ellen", mk_ellen, false, big, th, 50, alphas);

  // Panel d: zipf sweep, large tree, OVERSUBSCRIBED.
  std::fprintf(stderr, "panel d\n");
  sweep_alpha("fig5d", "leaftree-bl", mk_leaftree, true, big, ov, 50, alphas);
  sweep_alpha("fig5d", "leaftree-lf", mk_leaftree, false, big, ov, 50, alphas);
  sweep_alpha("fig5d", "natarajan", mk_nat, false, big, ov, 50, alphas);
  sweep_alpha("fig5d", "ellen", mk_ellen, false, big, ov, 50, alphas);

  // Panel e: thread sweep, small tree.
  std::fprintf(stderr, "panel e\n");
  sweep_threads("fig5e", "leaftree-bl", mk_leaftree, true, small, 50, 0.75,
                threads);
  sweep_threads("fig5e", "leaftree-lf", mk_leaftree, false, small, 50, 0.75,
                threads);
  sweep_threads("fig5e", "natarajan", mk_nat, false, small, 50, 0.75, threads);
  sweep_threads("fig5e", "ellen", mk_ellen, false, small, 50, 0.75, threads);

  // Panel f: update sweep, small tree.
  std::fprintf(stderr, "panel f\n");
  sweep_updates("fig5f", "leaftree-bl", mk_leaftree, true, small, th, 0.75,
                updates);
  sweep_updates("fig5f", "leaftree-lf", mk_leaftree, false, small, th, 0.75,
                updates);
  sweep_updates("fig5f", "natarajan", mk_nat, false, small, th, 0.75, updates);
  sweep_updates("fig5f", "ellen", mk_ellen, false, small, th, 0.75, updates);

  // Panel g: zipf sweep, small tree, oversubscribed, 5% updates.
  std::fprintf(stderr, "panel g\n");
  sweep_alpha("fig5g", "leaftree-bl", mk_leaftree, true, small, ov, 5, alphas);
  sweep_alpha("fig5g", "leaftree-lf", mk_leaftree, false, small, ov, 5, alphas);
  sweep_alpha("fig5g", "natarajan", mk_nat, false, small, ov, 5, alphas);
  sweep_alpha("fig5g", "ellen", mk_ellen, false, small, ov, 5, alphas);

  // Panel h: size sweep, oversubscribed, 5% updates.
  std::fprintf(stderr, "panel h\n");
  const std::vector<uint64_t> sizes = {1000, 10000, 100000, big, 4 * big};
  sweep_sizes("fig5h", "leaftree-bl", mk_leaftree, true, ov, 5, 0.75, sizes);
  sweep_sizes("fig5h", "leaftree-lf", mk_leaftree, false, ov, 5, 0.75, sizes);
  sweep_sizes("fig5h", "natarajan", mk_nat, false, ov, 5, 0.75, sizes);
  sweep_sizes("fig5h", "ellen", mk_ellen, false, ov, 5, 0.75, sizes);
  return 0;
}
