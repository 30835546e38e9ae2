#include "solver/consistency.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <queue>
#include <utility>

#include "algebra/exec_policy.h"
#include "count/join_tree_instance.h"
#include "hypergraph/acyclic.h"
#include "util/trace.h"

namespace sharpcq {

bool EnforcePairwiseConsistency(std::vector<Rel>* views) {
  TraceSpan span("pairwise_consistency");
  const std::size_t n = views->size();
  span.NoteCount("views", n);
  for (const Rel& v : *views) {
    if (v.empty()) return false;
  }

  // Acyclic downgrade: when the view schemas form an alpha-acyclic
  // hypergraph, the greatest pairwise-consistent subinstance equals the
  // globally consistent one (Beeri–Fagin–Maier–Yannakakis), and the
  // two-pass join-tree full reducer computes it with O(n) semijoins
  // instead of a fixpoint.
  {
    std::vector<IdSet> edges;
    edges.reserve(n);
    for (const Rel& v : *views) edges.push_back(v.vars());
    if (std::optional<TreeShape> shape = BuildJoinTree(edges);
        shape.has_value()) {
      span.Note("regime", "join_tree");
      JoinTreeInstance instance;
      instance.shape = std::move(*shape);
      instance.nodes = std::move(*views);
      bool ok = FullReduce(&instance);
      *views = std::move(instance.nodes);
      return ok;
    }
  }

  // Cyclic schemas: worklist propagation to the fixpoint. A pair (i, j)
  // needs re-running only when its right side j shrank since the pair last
  // ran — a semijoin never un-removes rows, so shrinking i alone cannot
  // change any (i, j') outcome. Compared to the old full-rescan fixpoint
  // (every pair, every round, until a clean round) this skips the O(pairs)
  // confirming rescans entirely.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::vector<std::vector<std::size_t>> pairs_with_right(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && (*views)[i].vars().Intersects((*views)[j].vars())) {
        pairs_with_right[j].push_back(pairs.size());
        pairs.emplace_back(i, j);
      }
    }
  }
  std::vector<char> queued(pairs.size(), 1);
  // Runs pair p once; false when the left view emptied (global failure).
  // Newly dirty pairs — right side p.first shrank — go through `enqueue`.
  auto relax = [&](std::size_t p, auto&& enqueue) -> bool {
    auto [i, j] = pairs[p];
    bool shrank = false;
    (*views)[i] = Semijoin((*views)[i], (*views)[j], &shrank);
    if (!shrank) return true;
    if ((*views)[i].empty()) return false;
    for (std::size_t q : pairs_with_right[i]) {
      if (!queued[q]) {
        queued[q] = 1;
        enqueue(q);
      }
    }
    return true;
  };

  // Relaxations run by either regime below, flushed on every exit path
  // (including an ExecInterrupted unwind) into the execution's stats sink
  // and the span — the trace's "consistency-worklist iterations" figure.
  struct RelaxTally {
    std::uint64_t count = 0;
    TraceSpan* span;
    ~RelaxTally() {
      if (ExecStats* stats = CurrentExecStats()) {
        stats->worklist_iterations.fetch_add(count,
                                             std::memory_order_relaxed);
      }
      span->NoteCount("relaxations", count);
    }
  } tally{0, &span};

  // The fixpoint is confluent — semijoins only remove rows and the greatest
  // pairwise-consistent subinstance is unique — so scheduling order is pure
  // performance. Both regimes below compute the same views.
  const ExecPolicy* exec_policy = CurrentExecPolicy();
  if (exec_policy != nullptr && exec_policy->cost_model) {
    // Cost-model regime: a priority queue ordered by each pair's estimated
    // shrink, size(left) / est-distinct(right on shared vars) — the pairs
    // expected to delete the most rows run first, so later, bigger
    // semijoins probe already-trimmed left sides. Scores are computed at
    // enqueue time (cheap: cached stats or row counts, never an index
    // build); staleness only costs priority accuracy, never correctness.
    auto score = [&](std::size_t p) -> std::uint64_t {
      const auto& [i, j] = pairs[p];
      const Rel& right = (*views)[j];
      const IdSet shared = Intersect((*views)[i].vars(), right.vars());
      std::size_t keys = EstimatedDistinctCount(right, shared);
      if (keys == 0) keys = 1;
      return static_cast<std::uint64_t>((*views)[i].size()) / keys;
    };
    using Entry = std::pair<std::uint64_t, std::size_t>;  // (score, pair)
    auto later = [](const Entry& a, const Entry& b) {
      if (a.first != b.first) return a.first < b.first;
      return a.second > b.second;  // ties: lowest pair index first
    };
    std::priority_queue<Entry, std::vector<Entry>, decltype(later)> worklist(
        later);
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      worklist.emplace(score(p), p);
    }
    if (!pairs.empty()) {
      if (ExecStats* stats = CurrentExecStats()) {
        stats->cost_reorders.fetch_add(1, std::memory_order_relaxed);
      }
    }
    span.Note("regime", "priority");
    while (!worklist.empty()) {
      CheckExecInterrupt();
      const std::size_t p = worklist.top().second;
      worklist.pop();
      queued[p] = 0;
      ++tally.count;
      if (!relax(p, [&](std::size_t q) { worklist.emplace(score(q), q); })) {
        return false;
      }
    }
    return true;
  }
  span.Note("regime", "fifo");

  // Default regime: FIFO, seeded by ascending right-side size — small build
  // sides go first, so by the time the big semijoins run, their left sides
  // have already been trimmed by every cheap filter (and the stable sort
  // keeps runs deterministic).
  std::vector<std::size_t> seed(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) seed[p] = p;
  std::stable_sort(seed.begin(), seed.end(),
                   [&](std::size_t a, std::size_t b) {
                     return (*views)[pairs[a].second].size() <
                            (*views)[pairs[b].second].size();
                   });
  std::deque<std::size_t> worklist;
  for (std::size_t p : seed) worklist.push_back(p);

  while (!worklist.empty()) {
    // Deadline/cancellation checkpoint: the fixpoint can run thousands of
    // semijoins whose probe sides are each too small to morselize, so the
    // per-morsel checks alone would never fire here.
    CheckExecInterrupt();
    const std::size_t p = worklist.front();
    worklist.pop_front();
    queued[p] = 0;
    ++tally.count;
    if (!relax(p, [&](std::size_t q) { worklist.push_back(q); })) {
      return false;
    }
  }
  return true;
}

}  // namespace sharpcq
