#ifndef SHARPCQ_QUERY_ATOM_RELATION_H_
#define SHARPCQ_QUERY_ATOM_RELATION_H_

#include "algebra/rel.h"
#include "data/database.h"
#include "query/atom.h"

namespace sharpcq {

// The substitutions over Vars(atom) that satisfy `atom` on `db`: rows of the
// atom's relation filtered by constant positions and repeated-variable
// equality, projected onto the variable positions. Deduplicated.
//
// This is the bridge from the positional world (Database) to the
// variable-bound world used by every counting engine (algebra/rel.h).
Rel AtomToRel(const Atom& atom, const Database& db);

// Appends the same substitutions to `out` as flat row-major values
// (|Vars(atom)| per row, columns in ascending variable id) and returns how
// many rows it appended. A plain scan of the stored table: no index, no
// kernel operator, and no dedup. The backtracking oracle
// (count/enumeration.h) reads atoms through this.
std::size_t AppendAtomRows(const Atom& atom, const Database& db,
                           std::vector<Value>* out);

}  // namespace sharpcq

#endif  // SHARPCQ_QUERY_ATOM_RELATION_H_
