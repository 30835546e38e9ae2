#include "core/materialize.h"

#include "query/atom_relation.h"
#include "util/check.h"

namespace sharpcq {

Rel MaterializeViewRel(const ViewSet& views, std::size_t view_id,
                       const ConjunctiveQuery& guard_query,
                       const Database& db) {
  const std::vector<int>& guard = views.guards[view_id];
  if (guard.empty()) {
    SHARPCQ_CHECK_MSG(views.HasName(view_id),
                      "abstract view has neither guards nor a relation");
    // The stored table is a set already: share it, with its index cache.
    const std::shared_ptr<const Table>& stored =
        db.table(views.names[view_id]);
    SHARPCQ_CHECK_MSG(
        stored->arity() == static_cast<int>(views.vars[view_id].size()),
        "named view arity mismatch");
    return Rel(views.vars[view_id], stored);
  }
  Rel joined = AtomToRel(
      guard_query.atoms()[static_cast<std::size_t>(guard[0])], db);
  for (std::size_t g = 1; g < guard.size(); ++g) {
    joined = Join(joined,
                  AtomToRel(
                      guard_query.atoms()[static_cast<std::size_t>(guard[g])],
                      db));
  }
  return joined;
}

JoinTreeInstance MaterializeBags(const ConjunctiveQuery& core,
                                 const ConjunctiveQuery& guard_query,
                                 const Database& db, const BagTree& tree,
                                 const ViewSet& views) {
  JoinTreeInstance instance;
  instance.shape = tree.shape;
  instance.nodes.reserve(tree.bags.size());

  for (std::size_t v = 0; v < tree.bags.size(); ++v) {
    Rel view_rel = MaterializeViewRel(
        views, static_cast<std::size_t>(tree.view_ids[v]), guard_query, db);
    SHARPCQ_CHECK_MSG(tree.bags[v].IsSubsetOf(view_rel.vars()),
                      "bag not guarded by its view");
    instance.nodes.push_back(Project(view_rel, tree.bags[v]));
  }

  // Assign every core atom to the first bag covering it and enforce it
  // there (the decomposition completion of the Theorem 6.2 proof).
  for (const Atom& atom : core.atoms()) {
    IdSet vars = atom.Vars();
    bool assigned = false;
    for (std::size_t v = 0; v < tree.bags.size() && !assigned; ++v) {
      if (!vars.IsSubsetOf(tree.bags[v])) continue;
      instance.nodes[v] =
          Semijoin(instance.nodes[v], AtomToRel(atom, db));
      assigned = true;
    }
    SHARPCQ_CHECK_MSG(assigned, "core atom not covered by any bag");
  }
  return instance;
}

}  // namespace sharpcq
