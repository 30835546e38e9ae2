#ifndef SHARPCQ_DATA_DATABASE_H_
#define SHARPCQ_DATA_DATABASE_H_

#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "algebra/table.h"
#include "data/value.h"

namespace sharpcq {

// A database instance: a finite set of ground atoms, stored as a map from
// relation symbol to relation instance (Section 2, "Relational Databases").
//
// Every relation is an immutable, deduplicated Table (algebra/table.h):
// the form all counting strategies execute on. Copying a Database copies
// one shared_ptr per relation, never tuple data, and tables are safe to
// read from any number of threads. Databases come from a DatabaseBuilder,
// from CSV (data/csv.h), or from a mapped snapshot (storage/snapshot.h).
class Database {
 public:
  // Installs `table` as relation `name`, replacing any relation of that
  // name. The table must be a set of rows (every published Table is; see
  // algebra/table.h): the atom bridge shares stored tables unchanged, so
  // counts depend on it.
  void SetTable(const std::string& name, std::shared_ptr<const Table> table);

  // The table of `name`; aborts if absent (query evaluation treats a
  // missing relation as a configuration error, not an empty relation).
  const std::shared_ptr<const Table>& table(const std::string& name) const;

  bool HasRelation(const std::string& name) const {
    return tables_.count(name) > 0;
  }

  // Total number of tuples across relations.
  std::size_t TotalTuples() const;

  // Every relation name, sorted: the iteration order for snapshots, CSV
  // exports, and debug dumps, so output is byte-stable across runs.
  std::vector<std::string> SortedRelationNames() const;

 private:
  std::map<std::string, std::shared_ptr<const Table>> tables_;
};

// Accumulates tuples and publishes them as a Database. Duplicate tuples
// are fine: Build dedups each relation through TableBuilder::Build.
class DatabaseBuilder {
 public:
  // Declares `name` with `arity` (idempotent; arity mismatch aborts). A
  // declared relation with no tuples is published as an empty table.
  void DeclareRelation(const std::string& name, int arity);

  // Adds a tuple, declaring the relation on first use.
  void AddTuple(const std::string& name, std::span<const Value> row);
  void AddTuple(const std::string& name, std::initializer_list<Value> row) {
    AddTuple(name, std::span<const Value>(row.begin(), row.size()));
  }

  Database Build() &&;

 private:
  TableBuilder& Declared(const std::string& name, int arity);

  std::map<std::string, TableBuilder> relations_;
};

}  // namespace sharpcq

#endif  // SHARPCQ_DATA_DATABASE_H_
