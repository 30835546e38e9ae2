#include "algebra/rel.h"

#include <algorithm>

#include "algebra/exec_policy.h"
#include "algebra/stats.h"

namespace sharpcq {

Rel Rel::Unit() {
  TableBuilder builder(0);
  builder.AddRow(std::span<const Value>{});
  return Rel(IdSet{}, std::move(builder).Build(/*known_distinct=*/true));
}

int Rel::ColumnOf(std::uint32_t var) const {
  const auto& ids = vars_.ids();
  auto it = std::lower_bound(ids.begin(), ids.end(), var);
  SHARPCQ_CHECK_MSG(it != ids.end() && *it == var,
                    "variable not in relation schema");
  return static_cast<int>(it - ids.begin());
}

std::string Rel::DebugString() const {
  return vars_.ToString() + table_->DebugString();
}

std::vector<int> ColumnsOf(const Rel& r, const IdSet& vars) {
  std::vector<int> cols;
  cols.reserve(vars.size());
  for (std::uint32_t v : vars) cols.push_back(r.ColumnOf(v));
  return cols;
}

Rel Project(const Rel& r, const IdSet& onto) {
  SHARPCQ_CHECK_MSG(onto.IsSubsetOf(r.vars()), "Project: onto not a subset");
  if (onto == r.vars()) return r;  // identity: share the table
  std::vector<int> cols = ColumnsOf(r, onto);
  std::shared_ptr<const TableIndex> index = r.table()->IndexOn(cols);

  TableBuilder builder(static_cast<int>(cols.size()));
  builder.ReserveRows(index->num_groups());
  for (std::size_t g = 0; g < index->num_groups(); ++g) {
    builder.AddRow(index->group_key(g));
  }
  return Rel(onto, std::move(builder).Build(/*known_distinct=*/true));
}

Rel Join(const Rel& a, const Rel& b) {
  IdSet shared = Intersect(a.vars(), b.vars());
  IdSet out_vars = Union(a.vars(), b.vars());

  // Position of every output column in a (or b for b-only vars).
  std::vector<int> from_a(out_vars.size(), -1);
  std::vector<int> from_b(out_vars.size(), -1);
  {
    std::size_t i = 0;
    for (std::uint32_t v : out_vars) {
      if (a.vars().Contains(v)) {
        from_a[i] = a.ColumnOf(v);
      } else {
        from_b[i] = b.ColumnOf(v);
      }
      ++i;
    }
  }

  std::shared_ptr<const TableIndex> index =
      b.table()->IndexOn(ColumnsOf(b, shared));
  std::vector<int> a_shared_cols = ColumnsOf(a, shared);
  const Table& ta = *a.table();
  const Table& tb = *b.table();
  const std::size_t n = ta.rows();

  // Probe phase: per-morsel (a-row, b-row) id pair lists, via one packed
  // word per probe row. Morsels only append to their own chunk's vectors.
  MorselPlan plan = PlanMorsels(n, index->num_groups());
  std::vector<std::vector<std::uint32_t>> a_ids(plan.chunks);
  std::vector<std::vector<std::uint32_t>> b_ids(plan.chunks);
  RunMorsels(plan, n, [&](std::size_t chunk, std::size_t begin,
                          std::size_t end) {
    std::vector<std::uint32_t>& av = a_ids[chunk];
    std::vector<std::uint32_t>& bv = b_ids[chunk];
    ForEachProbeGroup(*index, ta, a_shared_cols, begin, end,
                      [&](std::size_t i, std::uint32_t group) {
                        if (group == TableIndex::kNoGroup) return;
                        for (std::uint32_t bid : index->group_rows(group)) {
                          av.push_back(static_cast<std::uint32_t>(i));
                          bv.push_back(bid);
                        }
                      });
  });

  // Materialize column-wise: one contiguous gather per output column from
  // whichever side owns it, chunks concatenated in probe order.
  std::size_t total = 0;
  for (const auto& chunk : a_ids) total += chunk.size();
  std::vector<std::vector<Value>> cols(out_vars.size());
  for (std::size_t c = 0; c < cols.size(); ++c) {
    std::vector<Value>& out = cols[c];
    out.reserve(total);
    if (from_a[c] >= 0) {
      std::span<const Value> src = ta.Column(from_a[c]);
      for (const auto& chunk : a_ids) {
        for (std::uint32_t id : chunk) out.push_back(src[id]);
      }
    } else {
      std::span<const Value> src = tb.Column(from_b[c]);
      for (const auto& chunk : b_ids) {
        for (std::uint32_t id : chunk) out.push_back(src[id]);
      }
    }
  }
  // Distinct inputs produce distinct join rows: an output row determines
  // its (a-row, b-row) pair by projection, so no dedup pass is needed.
  return Rel(std::move(out_vars), Table::FromColumns(std::move(cols), total));
}

Rel Semijoin(const Rel& a, const Rel& b, bool* changed) {
  IdSet shared = Intersect(a.vars(), b.vars());
  std::shared_ptr<const TableIndex> index =
      b.table()->IndexOn(ColumnsOf(b, shared));
  std::vector<int> a_shared_cols = ColumnsOf(a, shared);
  const Table& ta = *a.table();
  const std::size_t n = ta.rows();

  // Per-morsel selection vectors, gathered once below. Each probe is one
  // packed-word lookup; a chunk that keeps every row is the common case in
  // fixpoint tails, so chunks stay cheap ascending id lists.
  MorselPlan plan = PlanMorsels(n, index->num_groups());
  std::vector<std::vector<std::uint32_t>> kept(plan.chunks);
  RunMorsels(plan, n, [&](std::size_t chunk, std::size_t begin,
                          std::size_t end) {
    std::vector<std::uint32_t>& out = kept[chunk];
    out.reserve(end - begin);
    ForEachProbeGroup(*index, ta, a_shared_cols, begin, end,
                      [&](std::size_t i, std::uint32_t group) {
                        if (group != TableIndex::kNoGroup) {
                          out.push_back(static_cast<std::uint32_t>(i));
                        }
                      });
  });

  std::size_t total = 0;
  for (const auto& chunk : kept) total += chunk.size();
  if (total == n) {
    if (changed != nullptr) *changed = false;
    return a;  // nothing removed: share the table and its cached indexes
  }
  if (changed != nullptr) *changed = true;
  if (plan.chunks == 1) {
    return Rel(a.vars(), Table::Gather(ta, kept[0]));
  }
  std::vector<std::uint32_t> selection;
  selection.reserve(total);
  for (const auto& chunk : kept) {
    selection.insert(selection.end(), chunk.begin(), chunk.end());
  }
  return Rel(a.vars(), Table::Gather(ta, selection));
}

Rel SelectEqual(const Rel& r, std::uint32_t var, Value value) {
  const int col = r.ColumnOf(var);
  std::shared_ptr<const TableIndex> index = r.table()->IndexOn({col});
  // Single-column fast path: no key-span construction, word == value.
  std::span<const std::uint32_t> matches = index->Lookup(value);
  if (matches.empty()) return Rel(r.vars());
  if (matches.size() == r.size()) return r;
  return Rel(r.vars(), Table::Gather(*r.table(), matches));
}

bool SameRel(const Rel& a, const Rel& b) {
  if (a.vars() != b.vars()) return false;
  if (a.size() != b.size()) return false;
  if (a.table() == b.table()) return true;
  std::vector<int> all(static_cast<std::size_t>(a.table()->arity()));
  for (std::size_t c = 0; c < all.size(); ++c) all[c] = static_cast<int>(c);
  std::shared_ptr<const TableIndex> index = b.table()->IndexOn(all);
  const Table& ta = *a.table();
  // Packed probes in blocks, bailing out after the block containing the
  // first non-member row (unequal sets usually diverge early).
  constexpr std::size_t kBlock = 512;
  bool contained = true;
  for (std::size_t begin = 0; begin < ta.rows() && contained;
       begin += kBlock) {
    std::size_t end = std::min(begin + kBlock, ta.rows());
    ForEachProbeGroup(*index, ta, all, begin, end,
                      [&](std::size_t, std::uint32_t group) {
                        if (group == TableIndex::kNoGroup) contained = false;
                      });
  }
  // Both sides are sets of equal cardinality, so containment is equality.
  return contained;
}

CountedProjection ProjectCounted(const Rel& r, const IdSet& onto) {
  SHARPCQ_CHECK_MSG(onto.IsSubsetOf(r.vars()),
                    "ProjectCounted: onto not a subset");
  std::vector<int> cols = ColumnsOf(r, onto);
  std::shared_ptr<const TableIndex> index = r.table()->IndexOn(cols);

  CountedProjection out;
  TableBuilder builder(static_cast<int>(cols.size()));
  builder.ReserveRows(index->num_groups());
  out.counts.reserve(index->num_groups());
  for (std::size_t g = 0; g < index->num_groups(); ++g) {
    builder.AddRow(index->group_key(g));
    out.counts.push_back(CountInt{index->group_rows(g).size()});
  }
  out.keys = Rel(onto, std::move(builder).Build(/*known_distinct=*/true));
  return out;
}

std::size_t DistinctCount(const Rel& r, const IdSet& onto) {
  SHARPCQ_CHECK_MSG(onto.IsSubsetOf(r.vars()),
                    "DistinctCount: onto not a subset");
  return r.table()->IndexOn(ColumnsOf(r, onto))->num_groups();
}

std::size_t MaxGroupSize(const Rel& r, const IdSet& onto) {
  if (r.empty()) return 0;
  IdSet key_vars = Intersect(r.vars(), onto);
  return r.table()->IndexOn(ColumnsOf(r, key_vars))->max_group_size();
}

std::size_t EstimatedDistinctCount(const Rel& r, const IdSet& onto) {
  const std::size_t rows = r.size();
  IdSet key_vars = Intersect(r.vars(), onto);
  if (key_vars.size() == 0) return rows == 0 ? 0 : 1;
  std::shared_ptr<const TableStats> stats = r.table()->StatsIfPresent();
  if (stats == nullptr) return rows;
  return static_cast<std::size_t>(
      EstimatedDistinctCount(*stats, ColumnsOf(r, key_vars)));
}

}  // namespace sharpcq
