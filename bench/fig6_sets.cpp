// Figure 6 — other set datatypes: arttree, leaftreap, hashtable, abtree,
// each in blocking and lock-free mode, plus srivastava_abtree
// (substituted per ARCHITECTURE.md §5 by our abtree under strict blocking
// locks, the same lock class that codebase uses).
//
// Paper shapes: lock-free ~= blocking at full subscription (overhead
// largest for the hashtable whose search time is small); lock-free wins
// up to ~2-2.5x when oversubscribed + contended (right of panel b).
#include <memory>

#include "harness.hpp"

int main() {
  using namespace bench;
  const uint64_t big = cfg().large_n;
  const int th = cfg().max_threads;
  const int ov = cfg().oversub_threads;
  std::fprintf(stderr, "fig6: sets (large=%llu, threads=%d, oversub=%d)\n",
               static_cast<unsigned long long>(big), th, ov);
  std::printf("figure,series,x,mops\n");

  auto mk_art = [] { return std::make_unique<flock_workload::arttree_try>(); };
  auto mk_treap = [] {
    return std::make_unique<flock_workload::leaftreap_try>();
  };
  auto mk_hash = [&] {
    return std::make_unique<flock_workload::hashtable_try>(
        static_cast<std::size_t>(cfg().large_n));
  };
  auto mk_ab = [] { return std::make_unique<flock_workload::abtree_try>(); };
  auto mk_ab_strict = [] {
    return std::make_unique<flock_workload::abtree_strict>();
  };

  const std::vector<int> threads = thread_axis();
  const std::vector<double> alphas = {0, 0.75, 0.9, 0.99};

  struct series {
    const char* name;
    bool blocking;
  };

  // Panel a: thread sweep, 50% updates, alpha 0.75.
  std::fprintf(stderr, "panel a\n");
  sweep_threads("fig6a", "arttree-bl", mk_art, true, big, 50, 0.75, threads);
  sweep_threads("fig6a", "arttree-lf", mk_art, false, big, 50, 0.75, threads);
  sweep_threads("fig6a", "leaftreap-bl", mk_treap, true, big, 50, 0.75,
                threads);
  sweep_threads("fig6a", "leaftreap-lf", mk_treap, false, big, 50, 0.75,
                threads);
  sweep_threads("fig6a", "hashtable-bl", mk_hash, true, big, 50, 0.75,
                threads);
  sweep_threads("fig6a", "hashtable-lf", mk_hash, false, big, 50, 0.75,
                threads);
  sweep_threads("fig6a", "abtree-bl", mk_ab, true, big, 50, 0.75, threads);
  sweep_threads("fig6a", "abtree-lf", mk_ab, false, big, 50, 0.75, threads);
  sweep_threads("fig6a", "srivastava_abtree(sub)", mk_ab_strict, true, big,
                50, 0.75, threads);

  // Panel b: zipf sweep, oversubscribed.
  std::fprintf(stderr, "panel b\n");
  sweep_alpha("fig6b", "arttree-bl", mk_art, true, big, ov, 50, alphas);
  sweep_alpha("fig6b", "arttree-lf", mk_art, false, big, ov, 50, alphas);
  sweep_alpha("fig6b", "leaftreap-bl", mk_treap, true, big, ov, 50, alphas);
  sweep_alpha("fig6b", "leaftreap-lf", mk_treap, false, big, ov, 50, alphas);
  sweep_alpha("fig6b", "hashtable-bl", mk_hash, true, big, ov, 50, alphas);
  sweep_alpha("fig6b", "hashtable-lf", mk_hash, false, big, ov, 50, alphas);
  sweep_alpha("fig6b", "abtree-bl", mk_ab, true, big, ov, 50, alphas);
  sweep_alpha("fig6b", "abtree-lf", mk_ab, false, big, ov, 50, alphas);
  sweep_alpha("fig6b", "srivastava_abtree(sub)", mk_ab_strict, true, big, ov,
              50, alphas);
  return 0;
}
