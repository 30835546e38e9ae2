#ifndef SHARPCQ_QUERY_CONJUNCTIVE_QUERY_H_
#define SHARPCQ_QUERY_CONJUNCTIVE_QUERY_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "query/atom.h"
#include "util/id_set.h"

namespace sharpcq {

// A conjunctive query (Section 2): a conjunction of atoms with a designated
// set of free (output) variables; all other variables are existentially
// quantified.
//
// Variable names are interned into dense VarIds through a *shared* name
// table, so that derived queries (colorings, cores, requantifications
// Q[S-bar]) keep the same VarIds as the query they came from — the
// hypergraph/decomposition machinery can mix their variable sets freely.
class ConjunctiveQuery {
 public:
  ConjunctiveQuery();

  // --- construction -------------------------------------------------------

  // Interns a variable name (idempotent).
  VarId InternVar(const std::string& name);

  // Adds r(terms...); terms given as Term values.
  void AddAtom(const std::string& relation, std::vector<Term> terms);

  // Convenience: adds an atom whose arguments are variable names.
  void AddAtomVars(const std::string& relation,
                   const std::vector<std::string>& var_names);

  // Declares the free (output) variables. Variables are interned if new.
  void SetFreeByName(const std::vector<std::string>& names);
  void SetFree(IdSet free);

  // --- inspection ----------------------------------------------------------

  const std::vector<Atom>& atoms() const { return atoms_; }
  const IdSet& free_vars() const { return free_; }

  // vars(Q): every variable occurring in some atom (free variables that
  // occur in no atom are not included, matching vars(atoms(Q))).
  IdSet AllVars() const;

  // Existential variables: AllVars() minus free.
  IdSet ExistentialVars() const;

  std::string VarName(VarId v) const;
  // Looks up a variable id by name; aborts if unknown (test convenience).
  VarId VarByName(const std::string& name) const;

  // The query hypergraph HQ: one hyperedge per atom (constants ignored).
  Hypergraph BuildHypergraph() const;

  // Number of atoms / a simple size measure ||Q||.
  std::size_t NumAtoms() const { return atoms_.size(); }
  std::size_t Size() const;

  // True if every atom uses a distinct relation symbol.
  bool IsSimple() const;

  std::string DebugString() const;
  // "r(X,5)": `atom` rendered with this query's variable names.
  std::string AtomDebugString(const Atom& atom) const;

  // --- derived queries (share this query's name table) --------------------

  // color(Q): adds a fresh unary atom `#color_X(X)` for every free variable
  // X (Section 3.1). Color relations never exist in databases; they matter
  // only for the query-as-structure view used in core computation.
  ConjunctiveQuery Colored() const;

  // fullcolor(Q): a color atom for *every* variable (Section 5.3).
  ConjunctiveQuery FullColored() const;

  // Q[S-bar]: same atoms, free variables replaced by `s` (Section 6).
  ConjunctiveQuery WithFree(IdSet s) const;

  // The subquery obtained by deleting atom `index` (free set unchanged).
  ConjunctiveQuery WithoutAtom(std::size_t index) const;

  // The subquery keeping exactly the atoms in `keep` (by index).
  ConjunctiveQuery KeepAtoms(const std::vector<std::size_t>& keep) const;

  // Removes all color atoms (inverse of Colored / FullColored on atoms).
  ConjunctiveQuery Uncolored() const;

  // True if `relation` is a color relation symbol.
  static bool IsColorRelation(const std::string& relation);

  // Color relation symbol for a variable name.
  static std::string ColorRelationName(const std::string& var_name);

  // --- name table ----------------------------------------------------------

  // Shared so VarIds stay stable across derived queries.
  struct NameTable {
    std::vector<std::string> names;
    std::unordered_map<std::string, VarId> index;
  };
  const std::shared_ptr<const NameTable> name_table() const { return names_; }

 private:
  ConjunctiveQuery CloneShell() const;  // same name table, no atoms

  std::shared_ptr<NameTable> names_;
  std::vector<Atom> atoms_;
  IdSet free_;
};

}  // namespace sharpcq

#endif  // SHARPCQ_QUERY_CONJUNCTIVE_QUERY_H_
