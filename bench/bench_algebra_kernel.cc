// The relational kernel (algebra/) against the by-value algebra it replaced
// (row-major relations with sort-based dedup, replicated below so the
// baseline stays fixed) on semijoin-heavy full-reducer fixpoints: the
// legacy operators rebuild a hash index and deep-copy the surviving rows
// on every single semijoin, while the kernel reuses each table's cached
// index and returns shared (copy-free) handles for semijoins that remove
// nothing.
//
//   - BM_Semijoin_{Legacy,Kernel}     one repeated semijoin against a fixed
//                                     right-hand side (index cached vs
//                                     rebuilt per call);
//   - BM_FullReducer_{Legacy,Kernel}  materialize + pairwise-consistency
//                                     fixpoint (solver/consistency.h) on a
//                                     pruning chain of views, each side
//                                     paying its own ingest path — the E20
//                                     experiment. CI gates legacy >= 2x
//                                     kernel time;
//   - BM_CountedProjection_{Legacy,Kernel}
//                                     |pi_F(r)| by materialize+dedup vs the
//                                     kernel's streamed group count.
//
// Baseline snapshot: BENCH_algebra_kernel.json at the repository root
// (regenerate with --benchmark_format=json).

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "algebra/rel.h"
#include "solver/consistency.h"
#include "util/hash.h"

namespace sharpcq {
namespace {

// --- the by-value algebra, replicated -----------------------------------------
//
// A frozen copy of the pre-kernel representation: a row-major relation
// deduplicated by sorting, and a per-call open-addressing index over whole
// key vectors. Only what the Legacy benchmarks run is kept.
namespace legacy {

struct Relation {
  int arity = 0;
  std::vector<Value> data;  // row-major, `arity` values per row (arity > 0)

  std::size_t size() const { return data.size() / arity; }
  std::span<const Value> Row(std::size_t i) const {
    return {data.data() + i * static_cast<std::size_t>(arity),
            static_cast<std::size_t>(arity)};
  }
  void AddRow(std::span<const Value> row) {
    data.insert(data.end(), row.begin(), row.end());
  }

  // Sorts rows lexicographically and drops duplicates.
  void Dedup() {
    if (size() <= 1) return;
    std::vector<std::uint32_t> ids(size());
    std::iota(ids.begin(), ids.end(), 0u);
    std::sort(ids.begin(), ids.end(), [this](std::uint32_t a, std::uint32_t b) {
      auto ra = Row(a);
      auto rb = Row(b);
      return std::lexicographical_compare(ra.begin(), ra.end(), rb.begin(),
                                          rb.end());
    });
    std::vector<Value> sorted;
    sorted.reserve(data.size());
    for (std::uint32_t id : ids) {
      auto row = Row(id);
      sorted.insert(sorted.end(), row.begin(), row.end());
    }
    data = std::move(sorted);
    std::vector<Value> deduped;
    deduped.reserve(data.size());
    for (std::size_t i = 0; i < size(); ++i) {
      auto row = Row(i);
      if (i > 0) {
        auto prev = Row(i - 1);
        if (std::equal(row.begin(), row.end(), prev.begin())) continue;
      }
      deduped.insert(deduped.end(), row.begin(), row.end());
    }
    data = std::move(deduped);
  }
};

// Hash index over selected key columns: key -> row ids.
class RowIndex {
 public:
  RowIndex(const Relation& rel, std::vector<int> key_columns)
      : key_columns_(std::move(key_columns)) {
    std::size_t capacity = 16;
    while (capacity < rel.size() * 2 + 2) capacity <<= 1;
    table_.assign(capacity, 0);
    mask_ = capacity - 1;
    for (std::size_t i = 0; i < rel.size(); ++i) {
      std::vector<Value> key = KeyOf(rel.Row(i));
      std::size_t slot = FindSlot(key);
      if (table_[slot] == 0) {
        buckets_.push_back(Bucket{std::move(key), {}});
        table_[slot] = static_cast<std::uint32_t>(buckets_.size());
      }
      buckets_[table_[slot] - 1].rows.push_back(static_cast<std::uint32_t>(i));
    }
  }

  bool Contains(std::span<const Value> key) const {
    return table_[FindSlot(key)] != 0;
  }

 private:
  struct Bucket {
    std::vector<Value> key;
    std::vector<std::uint32_t> rows;
  };

  std::vector<Value> KeyOf(std::span<const Value> row) const {
    std::vector<Value> key;
    key.reserve(key_columns_.size());
    for (int c : key_columns_) key.push_back(row[static_cast<std::size_t>(c)]);
    return key;
  }

  std::size_t FindSlot(std::span<const Value> key) const {
    std::size_t h = HashRange(key.begin(), key.end()) & mask_;
    while (true) {
      std::uint32_t b = table_[h];
      if (b == 0) return h;
      const Bucket& bucket = buckets_[b - 1];
      if (bucket.key.size() == key.size() &&
          std::equal(key.begin(), key.end(), bucket.key.begin())) {
        return h;
      }
      h = (h + 1) & mask_;
    }
  }

  std::vector<int> key_columns_;
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> table_;  // open addressing into buckets_ (+1)
  std::size_t mask_ = 0;
};

struct VarRelation {
  IdSet vars;
  Relation rel;

  explicit VarRelation(IdSet v) : vars(std::move(v)) {
    rel.arity = static_cast<int>(vars.size());
  }
  std::size_t size() const { return rel.size(); }
  bool empty() const { return size() == 0; }
  int ColumnOf(std::uint32_t var) const {
    const auto& ids = vars.ids();
    return static_cast<int>(std::lower_bound(ids.begin(), ids.end(), var) -
                            ids.begin());
  }
};

std::vector<int> ColumnsOf(const VarRelation& r, const IdSet& vars) {
  std::vector<int> cols;
  for (std::uint32_t v : vars) cols.push_back(r.ColumnOf(v));
  return cols;
}

VarRelation Project(const VarRelation& r, const IdSet& onto) {
  VarRelation out(onto);
  std::vector<int> cols = ColumnsOf(r, onto);
  std::vector<Value> row(onto.size());
  for (std::size_t i = 0; i < r.size(); ++i) {
    auto src = r.rel.Row(i);
    for (std::size_t j = 0; j < cols.size(); ++j) {
      row[j] = src[static_cast<std::size_t>(cols[j])];
    }
    out.rel.AddRow(row);
  }
  out.rel.Dedup();
  return out;
}

VarRelation Semijoin(const VarRelation& a, const VarRelation& b,
                     bool* changed = nullptr) {
  IdSet shared = Intersect(a.vars, b.vars);
  VarRelation out(a.vars);
  RowIndex index(b.rel, ColumnsOf(b, shared));
  std::vector<int> a_shared_cols = ColumnsOf(a, shared);
  std::vector<Value> key(shared.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    auto ra = a.rel.Row(i);
    for (std::size_t j = 0; j < a_shared_cols.size(); ++j) {
      key[j] = ra[static_cast<std::size_t>(a_shared_cols[j])];
    }
    if (index.Contains(key)) out.rel.AddRow(ra);
  }
  if (changed != nullptr) *changed = out.size() != a.size();
  return out;
}

}  // namespace legacy

using legacy::VarRelation;

constexpr int kChainViews = 8;
constexpr int kRowsPerView = 2000;
constexpr Value kDomain = 64;

// Raw tuples for a chain of binary views v_i -- v_{i+1}. The tail view's
// first column is restricted to a slice of the domain, so consistency
// enforcement prunes backwards over several fixpoint rounds — most pair
// semijoins in the later rounds remove nothing, which is exactly where the
// index cache and the no-op sharing pay off.
struct RawView {
  IdSet vars;
  std::vector<std::array<Value, 2>> rows;
};

std::vector<RawView> MakeChainRows() {
  std::mt19937_64 rng(12345);
  std::uniform_int_distribution<Value> value(0, kDomain - 1);
  std::vector<RawView> views;
  views.reserve(kChainViews);
  for (int i = 0; i < kChainViews; ++i) {
    RawView view;
    view.vars = IdSet{static_cast<std::uint32_t>(i),
                      static_cast<std::uint32_t>(i + 1)};
    const bool tail = i == kChainViews - 1;
    view.rows.reserve(kRowsPerView);
    for (int t = 0; t < kRowsPerView; ++t) {
      Value a = value(rng);
      if (tail) a /= 2;  // restrict: forces pruning up the chain
      view.rows.push_back({a, value(rng)});
    }
    views.push_back(std::move(view));
  }
  return views;
}

// Each side's own materialization path, as its strategies ingest bags:
// by-value relation + sort dedup (legacy) vs table build + hash dedup
// (kernel). Both are timed, so every benchmark iteration is independent —
// no kernel index cache survives between iterations.
std::vector<VarRelation> BuildLegacyViews(const std::vector<RawView>& raw) {
  std::vector<VarRelation> views;
  views.reserve(raw.size());
  for (const RawView& r : raw) {
    VarRelation view(r.vars);
    for (const auto& row : r.rows) {
      view.rel.AddRow(std::span<const Value>(row));
    }
    view.rel.Dedup();
    views.push_back(std::move(view));
  }
  return views;
}

std::vector<Rel> BuildKernelViews(const std::vector<RawView>& raw) {
  std::vector<Rel> views;
  views.reserve(raw.size());
  for (const RawView& r : raw) {
    TableBuilder builder(2);
    builder.ReserveRows(r.rows.size());
    for (const auto& row : r.rows) {
      builder.AddRow(std::span<const Value>(row));
    }
    views.emplace_back(r.vars, std::move(builder).Build());
  }
  return views;
}

// The pre-kernel pairwise-consistency fixpoint, verbatim: by-value
// VarRelation semijoins that rebuild the right-hand index on every call.
bool LegacyEnforcePairwiseConsistency(std::vector<VarRelation>* views) {
  const std::size_t n = views->size();
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && (*views)[i].vars.Intersects((*views)[j].vars)) {
        pairs.emplace_back(i, j);
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto [i, j] : pairs) {
      bool local = false;
      (*views)[i] = legacy::Semijoin((*views)[i], (*views)[j], &local);
      if (local) {
        changed = true;
        if ((*views)[i].empty()) return false;
      }
    }
  }
  return true;
}

void BM_Semijoin_Legacy(benchmark::State& state) {
  std::vector<VarRelation> views = BuildLegacyViews(MakeChainRows());
  const VarRelation& a = views[0];
  const VarRelation& b = views[1];
  for (auto _ : state) {
    VarRelation kept = legacy::Semijoin(a, b);
    benchmark::DoNotOptimize(kept.size());
  }
}
BENCHMARK(BM_Semijoin_Legacy);

// Steady-state semijoin against a stable right-hand side (the shape of a
// fixpoint round): the kernel serves b's index from the cache, the legacy
// operator rebuilds it per call.
void BM_Semijoin_Kernel(benchmark::State& state) {
  std::vector<Rel> views = BuildKernelViews(MakeChainRows());
  const Rel& a = views[0];
  const Rel& b = views[1];
  for (auto _ : state) {
    Rel kept = Semijoin(a, b);
    benchmark::DoNotOptimize(kept.size());
  }
}
BENCHMARK(BM_Semijoin_Kernel);

void BM_FullReducer_Legacy(benchmark::State& state) {
  const std::vector<RawView> raw = MakeChainRows();
  std::size_t surviving = 0;
  for (auto _ : state) {
    std::vector<VarRelation> views = BuildLegacyViews(raw);
    bool ok = LegacyEnforcePairwiseConsistency(&views);
    benchmark::DoNotOptimize(ok);
    surviving = views[0].size();
  }
  state.counters["surviving_rows"] =
      static_cast<double>(surviving);
}
BENCHMARK(BM_FullReducer_Legacy);

void BM_FullReducer_Kernel(benchmark::State& state) {
  const std::vector<RawView> raw = MakeChainRows();
  std::size_t surviving = 0;
  for (auto _ : state) {
    std::vector<Rel> views = BuildKernelViews(raw);
    bool ok = EnforcePairwiseConsistency(&views);
    benchmark::DoNotOptimize(ok);
    surviving = views[0].size();
  }
  state.counters["surviving_rows"] =
      static_cast<double>(surviving);
}
BENCHMARK(BM_FullReducer_Kernel);

void BM_CountedProjection_Legacy(benchmark::State& state) {
  std::vector<VarRelation> views = BuildLegacyViews(MakeChainRows());
  const VarRelation& r = views[0];
  const IdSet onto{0};
  for (auto _ : state) {
    std::size_t distinct = legacy::Project(r, onto).size();
    benchmark::DoNotOptimize(distinct);
  }
}
BENCHMARK(BM_CountedProjection_Legacy);

// Steady-state distinct count on a stable relation: after the first call
// the group index is cached and the count is a lookup.
void BM_CountedProjection_Kernel(benchmark::State& state) {
  std::vector<Rel> views = BuildKernelViews(MakeChainRows());
  const Rel& r = views[0];
  const IdSet onto{0};
  for (auto _ : state) {
    std::size_t distinct = DistinctCount(r, onto);
    benchmark::DoNotOptimize(distinct);
  }
}
BENCHMARK(BM_CountedProjection_Kernel);

}  // namespace
}  // namespace sharpcq

SHARPCQ_BENCH_MAIN();
