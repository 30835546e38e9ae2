#include "gen/random_gen.h"

#include <algorithm>
#include <random>
#include <set>

#include "util/check.h"

namespace sharpcq {

ConjunctiveQuery MakeRandomQuery(const RandomQueryParams& p) {
  SHARPCQ_CHECK(p.num_vars >= 1 && p.num_atoms >= 1 && p.max_arity >= 1);
  std::mt19937_64 rng(p.seed);
  ConjunctiveQuery q;
  std::vector<VarId> vars;
  vars.reserve(static_cast<std::size_t>(p.num_vars));
  for (int i = 0; i < p.num_vars; ++i) {
    vars.push_back(q.InternVar("V" + std::to_string(i)));
  }
  // One fixed arity per relation symbol (relational vocabularies give each
  // symbol a single arity).
  std::vector<int> rel_arity(static_cast<std::size_t>(p.num_relations));
  for (int& a : rel_arity) {
    a = 1 + static_cast<int>(rng() % static_cast<std::uint64_t>(p.max_arity));
  }

  std::vector<IdSet> atom_vars;  // for acyclic construction
  for (int a = 0; a < p.num_atoms; ++a) {
    std::size_t rel =
        rng() % static_cast<std::uint64_t>(p.num_relations);
    int arity = rel_arity[rel];
    std::vector<Term> terms;
    if (!p.force_acyclic || atom_vars.empty()) {
      for (int t = 0; t < arity; ++t) {
        terms.push_back(Term::Var(
            vars[rng() % static_cast<std::uint64_t>(vars.size())]));
      }
    } else {
      // Share a prefix with a random earlier atom, then fresh-ish vars not
      // used by any earlier atom (guaranteeing a join-tree construction).
      const IdSet& parent =
          atom_vars[rng() % static_cast<std::uint64_t>(atom_vars.size())];
      std::vector<std::uint32_t> shared(parent.begin(), parent.end());
      std::shuffle(shared.begin(), shared.end(), rng);
      std::size_t keep = shared.empty() ? 0 : rng() % (shared.size() + 1);
      IdSet used_anywhere;
      for (const IdSet& s : atom_vars) used_anywhere = Union(used_anywhere, s);
      std::vector<VarId> fresh;
      for (VarId v : vars) {
        if (!used_anywhere.Contains(v)) fresh.push_back(v);
      }
      std::shuffle(fresh.begin(), fresh.end(), rng);
      for (int t = 0; t < arity; ++t) {
        if (static_cast<std::size_t>(t) < keep) {
          terms.push_back(Term::Var(shared[static_cast<std::size_t>(t)]));
        } else if (!fresh.empty()) {
          terms.push_back(Term::Var(fresh.back()));
          fresh.pop_back();
        } else {
          // Fall back to repeating a shared variable (keeps acyclicity).
          terms.push_back(Term::Var(
              shared.empty() ? vars[0]
                             : shared[rng() % shared.size()]));
        }
      }
    }
    IdSet this_vars;
    for (const Term& t : terms) this_vars.Insert(t.var);
    atom_vars.push_back(this_vars);
    q.AddAtom("r" + std::to_string(rel), std::move(terms));
  }

  // Free variables among those actually used.
  IdSet used = q.AllVars();
  std::vector<std::uint32_t> pool(used.begin(), used.end());
  std::shuffle(pool.begin(), pool.end(), rng);
  IdSet free;
  for (int i = 0; i < p.num_free && static_cast<std::size_t>(i) < pool.size();
       ++i) {
    free.Insert(pool[static_cast<std::size_t>(i)]);
  }
  q.SetFree(free);
  return q;
}

Database MakeRandomDatabase(const ConjunctiveQuery& q,
                            const RandomDatabaseParams& p) {
  SHARPCQ_CHECK(p.domain >= 1);
  std::mt19937_64 rng(p.seed);
  DatabaseBuilder db;
  std::set<std::string> declared;
  for (const Atom& a : q.atoms()) {
    db.DeclareRelation(a.relation, a.arity());
    if (!declared.insert(a.relation).second) continue;
    std::vector<Value> row(static_cast<std::size_t>(a.arity()));
    for (int t = 0; t < p.tuples_per_relation; ++t) {
      for (Value& v : row) {
        v = static_cast<Value>(rng() % static_cast<std::uint64_t>(p.domain));
      }
      db.AddTuple(a.relation, std::span<const Value>(row));
    }
  }
  return std::move(db).Build();
}

}  // namespace sharpcq
