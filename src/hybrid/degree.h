#ifndef SHARPCQ_HYBRID_DEGREE_H_
#define SHARPCQ_HYBRID_DEGREE_H_

#include "count/join_tree_instance.h"
#include "data/database.h"
#include "decomp/hypertree.h"
#include "query/conjunctive_query.h"
#include "util/id_set.h"

namespace sharpcq {

// Degrees (Definition 6.1). The degree of a relation w.r.t. a set of output
// variables F is the largest number of rows sharing one projection onto F:
// how many ways a partial answer extends inside this relation. Keys give
// degree 1; "quasi-keys" give small degrees. Streamed off the relation's
// cached group index.
std::size_t DegreeOfRelation(const Rel& rel, const IdSet& free);

// bound(D, HD) over a materialized instance: the maximum degree over its
// bag relations.
std::size_t BoundOfInstance(const JoinTreeInstance& instance,
                            const IdSet& free);

// bound(D, HD) of a hypertree for q over db: materializes
// r_v = pi_{chi(v)}(join of lambda(v)) per vertex and takes the maximum
// degree w.r.t. free(q).
std::size_t HypertreeBound(const ConjunctiveQuery& q, const Database& db,
                           const Hypertree& ht);

// Materializes the vertex relations of a hypertree (no consistency
// enforcement): r_v = pi_{chi(v)}(join of lambda(v) over db).
JoinTreeInstance MaterializeHypertree(const ConjunctiveQuery& q,
                                      const Database& db, const Hypertree& ht);

}  // namespace sharpcq

#endif  // SHARPCQ_HYBRID_DEGREE_H_
