#include "data/database.h"

#include "util/check.h"

namespace sharpcq {

void Database::SetTable(const std::string& name,
                        std::shared_ptr<const Table> table) {
  SHARPCQ_CHECK(table != nullptr);
  tables_[name] = std::move(table);
}

const std::shared_ptr<const Table>& Database::table(
    const std::string& name) const {
  auto it = tables_.find(name);
  SHARPCQ_CHECK_MSG(it != tables_.end(), name.c_str());
  return it->second;
}

std::size_t Database::TotalTuples() const {
  std::size_t total = 0;
  for (const auto& [name, table] : tables_) total += table->rows();
  return total;
}

std::vector<std::string> Database::SortedRelationNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

TableBuilder& DatabaseBuilder::Declared(const std::string& name, int arity) {
  auto it = relations_.try_emplace(name, arity).first;
  SHARPCQ_CHECK_MSG(it->second.arity() == arity, name.c_str());
  return it->second;
}

void DatabaseBuilder::DeclareRelation(const std::string& name, int arity) {
  Declared(name, arity);
}

void DatabaseBuilder::AddTuple(const std::string& name,
                               std::span<const Value> row) {
  Declared(name, static_cast<int>(row.size())).AddRow(row);
}

Database DatabaseBuilder::Build() && {
  Database db;
  for (auto& [name, builder] : relations_) {
    db.SetTable(name, std::move(builder).Build());
  }
  return db;
}

}  // namespace sharpcq
