#ifndef SHARPCQ_CORE_MATERIALIZE_H_
#define SHARPCQ_CORE_MATERIALIZE_H_

#include "count/join_tree_instance.h"
#include "data/database.h"
#include "decomp/tree_projection.h"
#include "decomp/views.h"
#include "query/conjunctive_query.h"

namespace sharpcq {

// The relation of one view over `db`: the join of its guard atoms (from
// `guard_query`) for V^k-style views, or the stored relation for named
// views (columns in ascending-VarId order). Aborts on purely abstract views.
Rel MaterializeViewRel(const ViewSet& views, std::size_t view_id,
                       const ConjunctiveQuery& guard_query,
                       const Database& db);

// Materializes the bags of a decomposition into an acyclic instance whose
// solutions are exactly those of `core` on `db`:
//
//   bag relation r_v = pi_{chi(v)}( view relation of v's guard )
//                      semijoined with every core atom assigned to v.
//
// Guard atom indices refer to `guard_query` (the original query Q the views
// were built from; its joins are legal for the colored core — see
// DESIGN.md); named views read their relation from `db`, which must be
// legal w.r.t. the query (core/legality.h). Every atom of `core` must be
// covered by some bag; each is assigned to the first covering bag and
// enforced there via a semijoin, so the instance is a *complete*
// decomposition of `core`.
JoinTreeInstance MaterializeBags(const ConjunctiveQuery& core,
                                 const ConjunctiveQuery& guard_query,
                                 const Database& db, const BagTree& tree,
                                 const ViewSet& views);

}  // namespace sharpcq

#endif  // SHARPCQ_CORE_MATERIALIZE_H_
