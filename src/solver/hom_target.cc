#include "solver/hom_target.h"

namespace sharpcq {

QueryTarget::QueryTarget(const ConjunctiveQuery& q) {
  for (const Atom& a : q.atoms()) {
    std::vector<std::int64_t> tuple;
    tuple.reserve(a.terms.size());
    for (const Term& t : a.terms) {
      if (t.is_var()) {
        tuple.push_back(static_cast<std::int64_t>(t.var));
      } else {
        auto [it, inserted] = const_codes_.emplace(
            t.value, kConstOffset + static_cast<std::int64_t>(
                                        const_codes_.size()));
        tuple.push_back(it->second);
      }
    }
    relations_[a.relation].push_back(std::move(tuple));
  }
}

const std::vector<std::vector<std::int64_t>>* QueryTarget::TuplesOf(
    const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

std::optional<std::int64_t> QueryTarget::ConstCode(Value c) const {
  auto it = const_codes_.find(c);
  if (it == const_codes_.end()) return std::nullopt;
  return it->second;
}

DatabaseTarget::DatabaseTarget(const Database& db) {
  for (const std::string& name : db.SortedRelationNames()) {
    const Table& table = *db.table(name);
    auto& tuples = relations_[name];
    tuples.reserve(table.rows());
    for (std::size_t i = 0; i < table.rows(); ++i) {
      std::vector<std::int64_t>& tuple = tuples.emplace_back();
      for (int c = 0; c < table.arity(); ++c) tuple.push_back(table.at(i, c));
    }
  }
}

const std::vector<std::vector<std::int64_t>>* DatabaseTarget::TuplesOf(
    const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

}  // namespace sharpcq
