#include "oracle.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "data/csv.h"
#include "data/database.h"
#include "engine/engine.h"
#include "query/parser.h"
#include "util/cancel.h"
#include "util/count_int.h"

namespace perfbench {

void Expected::Set(int query, std::uint64_t generation, std::string count) {
  counts_[{query, generation}] = std::move(count);
}

const std::string* Expected::Find(int query, std::uint64_t generation) const {
  auto it = counts_.find({query, generation});
  if (it == counts_.end()) it = counts_.find({query, 0});
  return it == counts_.end() ? nullptr : &it->second;
}

void Expected::Merge(const Expected& other) {
  for (const auto& [key, count] : other.counts_) counts_[key] = count;
}

bool Expected::Save(const std::string& path, std::string* error) const {
  std::ofstream out(path);
  for (const auto& [key, count] : counts_)
    out << key.first << ' ' << key.second << ' ' << count << '\n';
  out.close();
  if (!out) *error = "cannot write " + path;
  return static_cast<bool>(out);
}

bool Expected::Load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  int query = 0;
  std::uint64_t generation = 0;
  std::string count;
  while (in >> query >> generation >> count) Set(query, generation, count);
  return true;
}

namespace {

// A relation over named variables, row-major.
struct VarTable {
  std::vector<std::string> vars;
  std::vector<std::int64_t> rows;
  std::size_t unit_rows = 0;  // row count (0 or 1) when `vars` is empty
  std::size_t size() const {
    return vars.empty() ? unit_rows : rows.size() / vars.size();
  }
};

std::uint64_t Mix(std::uint64_t h, std::int64_t v) {
  h ^= static_cast<std::uint64_t>(v) + 0x9E3779B97F4A7C15ull + (h << 6) +
       (h >> 2);
  return h * 0xBF58476D1CE4E5B9ull;
}

int IndexOf(const std::vector<std::string>& vars, const std::string& v) {
  auto it = std::find(vars.begin(), vars.end(), v);
  return it == vars.end() ? -1 : static_cast<int>(it - vars.begin());
}

// Keeps the columns `keep` (indexes into t.vars) and removes duplicate rows.
VarTable ProjectDistinct(const VarTable& t, const std::vector<int>& keep) {
  VarTable out;
  for (int k : keep) out.vars.push_back(t.vars[k]);
  const std::size_t w = t.vars.size();
  const std::size_t n = t.size();
  if (keep.empty()) {
    out.unit_rows = n > 0 ? 1 : 0;
    return out;
  }
  std::vector<std::int64_t> projected;
  projected.reserve(n * keep.size());
  for (std::size_t r = 0; r < n; ++r)
    for (int k : keep) projected.push_back(t.rows[r * w + k]);
  const std::size_t kw = keep.size();
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  auto less = [&](std::uint32_t a, std::uint32_t b) {
    return std::lexicographical_compare(
        projected.begin() + a * kw, projected.begin() + (a + 1) * kw,
        projected.begin() + b * kw, projected.begin() + (b + 1) * kw);
  };
  std::sort(order.begin(), order.end(), less);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && !less(order[i - 1], order[i])) continue;
    out.rows.insert(out.rows.end(), projected.begin() + order[i] * kw,
                    projected.begin() + (order[i] + 1) * kw);
  }
  return out;
}

}  // namespace

std::optional<std::uint64_t> EvaluateCount(
    const Query& q, const std::vector<Relation>& relations,
    std::size_t max_rows) {
  auto find = [&](const std::string& name) -> const Relation* {
    for (const Relation& r : relations)
      if (r.name == name) return &r;
    return nullptr;
  };
  std::vector<const Relation*> rel(q.atoms.size());
  for (std::size_t a = 0; a < q.atoms.size(); ++a) {
    rel[a] = find(q.atoms[a].relation);
    if (rel[a] == nullptr) return 0;  // an undeclared relation is empty
  }

  // Start from the unit table (no variables, one empty row).
  VarTable t;
  t.unit_rows = 1;
  std::vector<bool> done(q.atoms.size(), false);
  for (std::size_t step = 0; step < q.atoms.size(); ++step) {
    // Next atom: the smallest estimated join output, |table| times the
    // atom's rows per distinct key on the shared variables (an atom whose
    // variables are all bound is a filter and goes first).
    int pick = -1;
    double best_score = 0.0;
    for (std::size_t a = 0; a < q.atoms.size(); ++a) {
      if (done[a]) continue;
      std::vector<int> shared_pos;
      bool all_bound = true;
      for (std::size_t i = 0; i < q.atoms[a].vars.size(); ++i) {
        if (IndexOf(t.vars, q.atoms[a].vars[i]) >= 0) {
          shared_pos.push_back(static_cast<int>(i));
        } else {
          all_bound = false;
        }
      }
      double score = 0.0;
      if (!all_bound) {
        const Relation& r = *rel[a];
        std::vector<std::uint64_t> keys(r.size());
        for (std::size_t row = 0; row < r.size(); ++row) {
          std::uint64_t h = 0;
          for (int p : shared_pos) h = Mix(h, r.rows[row * r.arity + p]);
          keys[row] = h;
        }
        std::sort(keys.begin(), keys.end());
        double distinct = static_cast<double>(
            std::unique(keys.begin(), keys.end()) - keys.begin());
        score = static_cast<double>(t.size()) * static_cast<double>(r.size()) /
                std::max(1.0, distinct);
      }
      if (pick < 0 || score < best_score) {
        pick = static_cast<int>(a);
        best_score = score;
      }
    }
    done[pick] = true;
    const Atom& atom = q.atoms[pick];
    const Relation& r = *rel[pick];
    const int arity = r.arity;

    // A repeated variable keeps only rows equal at its positions; its first
    // position is either a join key (bound in the table) or a new column.
    std::vector<int> first_pos(atom.vars.size());
    for (std::size_t i = 0; i < atom.vars.size(); ++i)
      first_pos[i] = IndexOf(atom.vars, atom.vars[i]);
    std::vector<int> key_table_col, key_atom_pos, new_atom_pos;
    for (std::size_t i = 0; i < atom.vars.size(); ++i) {
      if (first_pos[i] != static_cast<int>(i)) continue;
      int col = IndexOf(t.vars, atom.vars[i]);
      if (col >= 0) {
        key_table_col.push_back(col);
        key_atom_pos.push_back(static_cast<int>(i));
      } else {
        new_atom_pos.push_back(static_cast<int>(i));
      }
    }
    // (key hash, row) sorted by hash: probes binary-search their hash.
    std::vector<std::pair<std::uint64_t, std::size_t>> index;
    index.reserve(r.size());
    for (std::size_t row = 0; row < r.size(); ++row) {
      const std::int64_t* v = &r.rows[row * arity];
      bool consistent = true;
      for (std::size_t i = 0; i < atom.vars.size(); ++i)
        if (v[i] != v[first_pos[i]]) consistent = false;
      if (!consistent) continue;
      std::uint64_t h = 0;
      for (int p : key_atom_pos) h = Mix(h, v[p]);
      index.emplace_back(h, row);
    }
    std::sort(index.begin(), index.end());

    VarTable next;
    next.vars = t.vars;
    for (int p : new_atom_pos) next.vars.push_back(atom.vars[p]);
    const std::size_t w = t.vars.size();
    const std::size_t n = t.size();
    for (std::size_t row = 0; row < n; ++row) {
      const std::int64_t* tv = w == 0 ? nullptr : &t.rows[row * w];
      std::uint64_t h = 0;
      for (int c : key_table_col) h = Mix(h, tv[c]);
      auto lo = std::lower_bound(
          index.begin(), index.end(), std::make_pair(h, std::size_t{0}));
      auto hi = lo;
      while (hi != index.end() && hi->first == h) ++hi;
      for (auto it = lo; it != hi; ++it) {
        const std::int64_t* av = &r.rows[it->second * arity];
        bool match = true;
        for (std::size_t k = 0; k < key_table_col.size(); ++k)
          if (tv[key_table_col[k]] != av[key_atom_pos[k]]) match = false;
        if (!match) continue;
        if (next.vars.empty()) {
          next.unit_rows = 1;
          break;
        }
        if (w > 0) next.rows.insert(next.rows.end(), tv, tv + w);
        for (int p : new_atom_pos) next.rows.push_back(av[p]);
      }
      if (next.size() > max_rows) return std::nullopt;
    }

    // Drop variables that are neither free nor used by a remaining atom.
    std::vector<int> keep;
    for (std::size_t c = 0; c < next.vars.size(); ++c) {
      bool needed = IndexOf(q.free, next.vars[c]) >= 0;
      for (std::size_t a = 0; a < q.atoms.size() && !needed; ++a)
        if (!done[a] && IndexOf(q.atoms[a].vars, next.vars[c]) >= 0)
          needed = true;
      if (needed) keep.push_back(static_cast<int>(c));
    }
    t = keep.size() == next.vars.size() ? std::move(next)
                                        : ProjectDistinct(next, keep);
    if (t.size() == 0) return 0;
  }
  std::vector<int> all(t.vars.size());
  std::iota(all.begin(), all.end(), 0);
  return ProjectDistinct(t, all).size();
}

namespace {

constexpr std::size_t kEvaluatorRowCap = 8'000'000;

// Fallback route: sharpcq's forced strategies, two distinct methods agreeing.
std::optional<std::string> CountByStrategies(const Query& q,
                                             const std::vector<Relation>& rels,
                                             std::string* error) {
  sharpcq::Database db;
  for (const Relation& r : rels) {
    std::istringstream csv(ToCsv(r));
    auto loaded = sharpcq::LoadRelationCsv(csv, r.name, &db);
    if (!loaded.ok()) {
      *error = "oracle: cannot load " + r.name;
      return std::nullopt;
    }
  }
  auto parsed = sharpcq::ParseQuery(q.Text());
  if (!parsed.has_value()) {
    *error = "oracle: cannot parse " + q.Text();
    return std::nullopt;
  }
  std::map<std::string, std::string> by_method;
  for (const char* strategy : {"ps13", "hybrid", "sharp", "backtracking"}) {
    sharpcq::CountingEngine engine;
    auto options = sharpcq::PlannerOptionsForStrategy(strategy);
    sharpcq::CancelToken token;
    token.SetDeadlineAfter(std::chrono::seconds(20));
    auto result = engine.Count(*parsed, db, *options, &token);
    if (!result.ok()) continue;
    std::string count = sharpcq::CountToString(result.count);
    for (const auto& [method, other] : by_method) {
      if (method == result.method) continue;
      if (other != count) {
        *error = "oracle: " + q.name + ": " + method + " says " + other +
                 ", " + result.method + " says " + count;
        return std::nullopt;
      }
      return count;
    }
    by_method[result.method] = count;
  }
  *error = "oracle: no two independent routes finished for " + q.name;
  return std::nullopt;
}

bool ExpectedFor(const Query& q, const std::vector<Relation>& rels,
                 std::string* count, std::string* error) {
  if (auto n = EvaluateCount(q, rels, kEvaluatorRowCap); n.has_value()) {
    *count = std::to_string(*n);
    return true;
  }
  auto agreed = CountByStrategies(q, rels, error);
  if (!agreed.has_value()) return false;
  *count = *agreed;
  return true;
}

bool Reads(const Query& q, const std::string& relation) {
  for (const Atom& a : q.atoms)
    if (a.relation == relation) return true;
  return false;
}

}  // namespace

bool ComputeExpected(const Inputs& inputs, Expected* out, std::string* error) {
  // Work items: (query, generation); generation 0 = independent of ingests.
  std::vector<std::pair<int, std::uint64_t>> items;
  const std::uint64_t generations = inputs.ingest_batches.size() + 1;
  for (std::size_t q = 0; q < inputs.queries.size(); ++q) {
    if (!inputs.ingest_relation.empty() &&
        Reads(inputs.queries[q], inputs.ingest_relation)) {
      for (std::uint64_t g = 1; g <= generations; ++g)
        items.emplace_back(static_cast<int>(q), g);
    } else {
      items.emplace_back(static_cast<int>(q), 0);
    }
  }
  std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
    return a.second < b.second || (a.second == b.second && a.first < b.first);
  });

  const unsigned threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<Expected> partial(threads);
  std::vector<std::string> errors(threads);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::uint64_t built = ~std::uint64_t{0};
      std::vector<Relation> rels;
      for (std::size_t i = t; i < items.size(); i += threads) {
        auto [q, g] = items[i];
        std::uint64_t at = std::max<std::uint64_t>(g, 1);
        if (at != built) {
          rels = RelationsAtGeneration(inputs, at);
          built = at;
        }
        std::string count;
        if (!ExpectedFor(inputs.queries[q], rels, &count, &errors[t])) return;
        partial[t].Set(q, g, count);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (unsigned t = 0; t < threads; ++t) {
    if (!errors[t].empty()) {
      *error = errors[t];
      return false;
    }
    out->Merge(partial[t]);
  }
  return true;
}

}  // namespace perfbench
