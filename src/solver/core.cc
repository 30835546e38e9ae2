#include "solver/core.h"

#include <set>
#include <unordered_map>

#include "data/database.h"
#include "query/atom_relation.h"
#include "solver/consistency.h"
#include "solver/homomorphism.h"
#include "util/check.h"

namespace sharpcq {

namespace {

// True if atom `i` of `q` can be dropped: q still maps homomorphically into
// q minus that atom.
bool AtomDeletable(const ConjunctiveQuery& q, std::size_t i) {
  ConjunctiveQuery reduced = q.WithoutAtom(i);
  QueryTarget target(reduced);
  return HomomorphismExists(q, target);
}

// Recodes (src, target) into a query/database pair over a shared coding of
// terms: variable v -> v (shared name table), constant c -> offset + index.
// Evaluating the coded src on the coded database decides src -> target.
struct CodedInstance {
  ConjunctiveQuery query;
  Database db;
};

CodedInstance CodeForHomomorphism(const ConjunctiveQuery& src,
                                  const ConjunctiveQuery& target) {
  constexpr std::int64_t kConstOffset = std::int64_t{1} << 40;
  std::unordered_map<Value, std::int64_t> codes;
  auto code_of = [&codes](Value c) {
    auto [it, inserted] = codes.emplace(
        c, kConstOffset + static_cast<std::int64_t>(codes.size()));
    return it->second;
  };

  CodedInstance out;
  DatabaseBuilder db;
  out.query = src.KeepAtoms({});  // shell with src's name table and free set
  for (const Atom& a : src.atoms()) {
    std::vector<Term> terms;
    terms.reserve(a.terms.size());
    for (const Term& t : a.terms) {
      terms.push_back(t.is_var() ? t : Term::Const(code_of(t.value)));
    }
    out.query.AddAtom(a.relation, std::move(terms));
    // Declare all of src's relations so absent ones read as empty.
    db.DeclareRelation(a.relation, a.arity());
  }
  for (const Atom& a : target.atoms()) {
    std::vector<Value> row;
    row.reserve(a.terms.size());
    for (const Term& t : a.terms) {
      row.push_back(t.is_var() ? static_cast<std::int64_t>(t.var)
                               : code_of(t.value));
    }
    db.AddTuple(a.relation, std::span<const Value>(row));
  }
  out.db = std::move(db).Build();
  return out;
}

// Calls fn(indices) for every subset of {0..m-1} of size 1..k.
template <typename Fn>
void ForEachAtomSubset(std::size_t m, int k, const Fn& fn) {
  std::vector<std::size_t> stack;
  // Iterative DFS over combinations.
  auto rec = [&](auto&& self, std::size_t start) -> void {
    if (!stack.empty()) fn(stack);
    if (static_cast<int>(stack.size()) == k) return;
    for (std::size_t i = start; i < m; ++i) {
      stack.push_back(i);
      self(self, i + 1);
      stack.pop_back();
    }
  };
  rec(rec, 0);
}

// Greedy core loop parameterized on the deletability oracle.
template <typename DeletableFn>
ConjunctiveQuery GreedyCore(ConjunctiveQuery q, const DeletableFn& deletable) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < q.NumAtoms(); ++i) {
      if (deletable(q, i)) {
        q = q.WithoutAtom(i);
        progress = true;
        break;
      }
    }
  }
  return q;
}

}  // namespace

ConjunctiveQuery ComputeCoreSubquery(const ConjunctiveQuery& q) {
  return GreedyCore(q, AtomDeletable);
}

ConjunctiveQuery ComputeColoredCore(const ConjunctiveQuery& q) {
  return ComputeCoreSubquery(q.Colored()).Uncolored();
}

bool HomomorphismExistsViaConsistency(const ConjunctiveQuery& src,
                                      const ConjunctiveQuery& target, int k) {
  CodedInstance coded = CodeForHomomorphism(src, target);

  // Build the standard view extension of V^k: one view per (<=k)-subset of
  // src's atoms, initialized with the join of the member atoms. Kernel
  // handles keep the subset joins cheap: the singleton views share the atom
  // relations' tables instead of copying them.
  std::vector<Rel> atom_rels;
  atom_rels.reserve(coded.query.NumAtoms());
  for (const Atom& a : coded.query.atoms()) {
    atom_rels.push_back(AtomToRel(a, coded.db));
    if (atom_rels.back().empty()) return false;
  }

  std::vector<Rel> views;
  bool some_empty = false;
  ForEachAtomSubset(
      atom_rels.size(), k, [&](const std::vector<std::size_t>& subset) {
        Rel joined = atom_rels[subset[0]];
        for (std::size_t i = 1; i < subset.size(); ++i) {
          joined = Join(joined, atom_rels[subset[i]]);
        }
        if (joined.empty()) some_empty = true;
        views.push_back(std::move(joined));
      });
  if (some_empty) return false;
  return EnforcePairwiseConsistency(&views);
}

ConjunctiveQuery ComputeColoredCoreViaConsistency(const ConjunctiveQuery& q,
                                                  int k) {
  ConjunctiveQuery colored = q.Colored();
  auto deletable = [k](const ConjunctiveQuery& current, std::size_t i) {
    return HomomorphismExistsViaConsistency(current, current.WithoutAtom(i),
                                            k);
  };
  return GreedyCore(colored, deletable).Uncolored();
}

std::vector<ConjunctiveQuery> EnumerateColoredCores(const ConjunctiveQuery& q,
                                                    std::size_t max_cores) {
  constexpr std::size_t kStateBudget = 20000;
  ConjunctiveQuery colored = q.Colored();

  std::vector<ConjunctiveQuery> cores;
  std::set<std::vector<std::size_t>> seen_states;
  std::set<std::vector<std::size_t>> core_states;
  std::size_t states_explored = 0;

  std::vector<std::size_t> all(colored.NumAtoms());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;

  auto rec = [&](auto&& self, const std::vector<std::size_t>& kept) -> void {
    if (cores.size() >= max_cores || states_explored >= kStateBudget) return;
    if (!seen_states.insert(kept).second) return;
    ++states_explored;

    ConjunctiveQuery current = colored.KeepAtoms(kept);
    std::vector<std::size_t> deletable;
    for (std::size_t local = 0; local < kept.size(); ++local) {
      if (AtomDeletable(current, local)) deletable.push_back(local);
    }
    if (deletable.empty()) {
      if (core_states.insert(kept).second) {
        cores.push_back(current.Uncolored());
      }
      return;
    }
    for (std::size_t local : deletable) {
      if (cores.size() >= max_cores) return;
      std::vector<std::size_t> next = kept;
      next.erase(next.begin() + static_cast<std::ptrdiff_t>(local));
      self(self, next);
    }
  };
  rec(rec, all);
  SHARPCQ_CHECK(!cores.empty());
  return cores;
}

}  // namespace sharpcq
