#include "query/conjunctive_query.h"

#include <algorithm>

#include "util/check.h"

namespace sharpcq {

namespace {
constexpr const char kColorPrefix[] = "#color_";
}  // namespace

ConjunctiveQuery::ConjunctiveQuery() : names_(std::make_shared<NameTable>()) {}

VarId ConjunctiveQuery::InternVar(const std::string& name) {
  auto [it, inserted] =
      names_->index.emplace(name, static_cast<VarId>(names_->names.size()));
  if (inserted) names_->names.push_back(name);
  return it->second;
}

void ConjunctiveQuery::AddAtom(const std::string& relation,
                               std::vector<Term> terms) {
  atoms_.push_back(Atom{relation, std::move(terms)});
}

void ConjunctiveQuery::AddAtomVars(const std::string& relation,
                                   const std::vector<std::string>& var_names) {
  std::vector<Term> terms;
  terms.reserve(var_names.size());
  for (const std::string& n : var_names) terms.push_back(Term::Var(InternVar(n)));
  AddAtom(relation, std::move(terms));
}

void ConjunctiveQuery::SetFreeByName(const std::vector<std::string>& names) {
  IdSet free;
  for (const std::string& n : names) free.Insert(InternVar(n));
  free_ = std::move(free);
}

void ConjunctiveQuery::SetFree(IdSet free) { free_ = std::move(free); }

IdSet ConjunctiveQuery::AllVars() const {
  IdSet vars;
  for (const Atom& a : atoms_) vars = Union(vars, a.Vars());
  return vars;
}

IdSet ConjunctiveQuery::ExistentialVars() const {
  return Difference(AllVars(), free_);
}

std::string ConjunctiveQuery::VarName(VarId v) const {
  SHARPCQ_CHECK(v < names_->names.size());
  return names_->names[v];
}

VarId ConjunctiveQuery::VarByName(const std::string& name) const {
  auto it = names_->index.find(name);
  SHARPCQ_CHECK_MSG(it != names_->index.end(), name.c_str());
  return it->second;
}

Hypergraph ConjunctiveQuery::BuildHypergraph() const {
  Hypergraph h(AllVars(), {});
  for (const Atom& a : atoms_) h.AddEdge(a.Vars());
  h.DedupEdges();
  return h;
}

std::size_t ConjunctiveQuery::Size() const {
  std::size_t s = free_.size();
  for (const Atom& a : atoms_) s += 1 + a.terms.size();
  return s;
}

bool ConjunctiveQuery::IsSimple() const {
  std::vector<std::string> rels;
  for (const Atom& a : atoms_) rels.push_back(a.relation);
  std::sort(rels.begin(), rels.end());
  return std::adjacent_find(rels.begin(), rels.end()) == rels.end();
}

std::string ConjunctiveQuery::DebugString() const {
  std::string out = "Q(";
  bool first = true;
  for (VarId v : free_) {
    if (!first) out += ",";
    first = false;
    out += VarName(v);
  }
  out += ") <- ";
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    if (i > 0) out += ", ";
    out += AtomDebugString(atoms_[i]);
  }
  return out;
}

std::string ConjunctiveQuery::AtomDebugString(const Atom& atom) const {
  std::string out = atom.relation + "(";
  for (std::size_t j = 0; j < atom.terms.size(); ++j) {
    if (j > 0) out += ",";
    const Term& t = atom.terms[j];
    out += t.is_var() ? VarName(t.var) : std::to_string(t.value);
  }
  return out + ")";
}

ConjunctiveQuery ConjunctiveQuery::CloneShell() const {
  ConjunctiveQuery q;
  q.names_ = names_;
  q.free_ = free_;
  return q;
}

ConjunctiveQuery ConjunctiveQuery::Colored() const {
  ConjunctiveQuery q = *this;
  for (VarId v : free_) {
    q.AddAtom(ColorRelationName(VarName(v)), {Term::Var(v)});
  }
  return q;
}

ConjunctiveQuery ConjunctiveQuery::FullColored() const {
  ConjunctiveQuery q = *this;
  for (VarId v : AllVars()) {
    q.AddAtom(ColorRelationName(VarName(v)), {Term::Var(v)});
  }
  return q;
}

ConjunctiveQuery ConjunctiveQuery::WithFree(IdSet s) const {
  ConjunctiveQuery q = *this;
  q.free_ = std::move(s);
  return q;
}

ConjunctiveQuery ConjunctiveQuery::WithoutAtom(std::size_t index) const {
  SHARPCQ_CHECK(index < atoms_.size());
  ConjunctiveQuery q = CloneShell();
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    if (i != index) q.atoms_.push_back(atoms_[i]);
  }
  return q;
}

ConjunctiveQuery ConjunctiveQuery::KeepAtoms(
    const std::vector<std::size_t>& keep) const {
  ConjunctiveQuery q = CloneShell();
  for (std::size_t i : keep) {
    SHARPCQ_CHECK(i < atoms_.size());
    q.atoms_.push_back(atoms_[i]);
  }
  return q;
}

ConjunctiveQuery ConjunctiveQuery::Uncolored() const {
  ConjunctiveQuery q = CloneShell();
  for (const Atom& a : atoms_) {
    if (!IsColorRelation(a.relation)) q.atoms_.push_back(a);
  }
  return q;
}

bool ConjunctiveQuery::IsColorRelation(const std::string& relation) {
  return relation.rfind(kColorPrefix, 0) == 0;
}

std::string ConjunctiveQuery::ColorRelationName(const std::string& var_name) {
  return kColorPrefix + var_name;
}

}  // namespace sharpcq
