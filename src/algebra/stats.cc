#include "algebra/stats.h"

#include <algorithm>
#include <bit>

#include "algebra/table.h"
#include "data/database.h"
#include "util/check.h"

namespace sharpcq {

std::size_t DegreeBucket(std::uint64_t group_size) {
  SHARPCQ_DCHECK(group_size >= 1);
  const std::size_t b = static_cast<std::size_t>(std::bit_width(group_size)) - 1;
  return b < kDegreeHistogramBuckets ? b : kDegreeHistogramBuckets - 1;
}

std::uint32_t SizeClass(std::uint64_t n) {
  return static_cast<std::uint32_t>(std::bit_width(n));
}

TableStats ComputeTableStats(const Table& table) {
  TableStats stats;
  stats.rows = table.rows();
  stats.columns.resize(static_cast<std::size_t>(table.arity()));
  if (table.rows() == 0) return stats;
  for (int c = 0; c < table.arity(); ++c) {
    std::shared_ptr<const TableIndex> index = table.IndexOn({c});
    ColumnStats& col = stats.columns[static_cast<std::size_t>(c)];
    col.distinct = index->num_groups();
    col.max_group = index->max_group_size();
    for (std::size_t g = 0; g < index->num_groups(); ++g) {
      ++col.histogram[DegreeBucket(index->group_rows(g).size())];
    }
  }
  return stats;
}

std::uint64_t EstimatedDistinctCount(const TableStats& stats,
                                     std::span<const int> cols) {
  const std::uint64_t rows = stats.rows;
  if (cols.empty()) return rows == 0 ? 0 : 1;
  std::uint64_t est = 1;
  for (int c : cols) {
    const std::uint64_t distinct =
        stats.columns[static_cast<std::size_t>(c)].distinct;
    if (distinct == 0) return 0;
    if (est >= rows / distinct + 1) return rows;  // product already >= rows
    est *= distinct;
  }
  return std::min(est, rows);
}

std::shared_ptr<const TableStats> PermuteStats(const TableStats& in,
                                               std::span<const int> perm) {
  auto out = std::make_shared<TableStats>();
  out->rows = in.rows;
  out->columns.reserve(perm.size());
  for (int p : perm) {
    SHARPCQ_CHECK(p >= 0 &&
                  static_cast<std::size_t>(p) < in.columns.size());
    out->columns.push_back(in.columns[static_cast<std::size_t>(p)]);
  }
  return out;
}

const RelationProfile* DataProfile::Find(std::string_view name) const {
  auto it = std::lower_bound(
      relations.begin(), relations.end(), name,
      [](const RelationProfile& r, std::string_view n) { return r.name < n; });
  if (it == relations.end() || it->name != name) return nullptr;
  return &*it;
}

std::string DataProfile::Fingerprint() const {
  std::string out;
  for (const RelationProfile& rel : relations) {
    if (!out.empty()) out.push_back(';');
    out += rel.name;
    out.push_back(':');
    out += std::to_string(SizeClass(rel.stats->rows));
    for (const ColumnStats& col : rel.stats->columns) {
      out.push_back('.');
      out += std::to_string(SizeClass(col.distinct));
      out.push_back('g');
      out += std::to_string(SizeClass(col.max_group));
    }
  }
  return out;
}

DataProfile BuildDataProfile(const Database& db,
                             std::span<const std::string> names) {
  std::vector<std::string> sorted(names.begin(), names.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  DataProfile profile;
  profile.relations.reserve(sorted.size());
  for (const std::string& name : sorted) {
    if (!db.HasRelation(name)) continue;
    profile.relations.push_back({name, db.table(name)->Stats()});
  }
  return profile;
}

DataProfile BuildDataProfile(const Database& db) {
  return BuildDataProfile(db, db.SortedRelationNames());
}

}  // namespace sharpcq
