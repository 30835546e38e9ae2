#include <gtest/gtest.h>

#include "gen/paper_queries.h"
#include "gen/random_gen.h"
#include "solver/consistency.h"
#include "solver/core.h"
#include "solver/hom_target.h"
#include "solver/homomorphism.h"
#include "tests/test_util.h"

namespace sharpcq {
namespace {


// --- homomorphisms ----------------------------------------------------------

TEST(HomomorphismTest, PathMapsIntoEdge) {
  // r(X,Y), r(Y,Z) maps onto r(U,V), r(V,U) (fold onto a 2-cycle).
  ConjunctiveQuery path;
  path.AddAtomVars("r", {"X", "Y"});
  path.AddAtomVars("r", {"Y", "Z"});
  ConjunctiveQuery cycle;
  cycle.AddAtomVars("r", {"U", "V"});
  cycle.AddAtomVars("r", {"V", "U"});
  EXPECT_TRUE(MapsInto(path, cycle));
  // The 2-cycle does not map into the path (no cycle in the target).
  EXPECT_FALSE(MapsInto(cycle, path));
}

TEST(HomomorphismTest, RelationSymbolsMustMatch) {
  ConjunctiveQuery a;
  a.AddAtomVars("r", {"X", "Y"});
  ConjunctiveQuery b;
  b.AddAtomVars("s", {"U", "V"});
  EXPECT_FALSE(MapsInto(a, b));
}

TEST(HomomorphismTest, ConstantsArePreserved) {
  ConjunctiveQuery a;
  VarId x = a.InternVar("X");
  a.AddAtom("r", {Term::Var(x), Term::Const(7)});
  ConjunctiveQuery b;
  VarId u = b.InternVar("U");
  b.AddAtom("r", {Term::Var(u), Term::Const(7)});
  ConjunctiveQuery c;
  VarId w = c.InternVar("W");
  c.AddAtom("r", {Term::Var(w), Term::Const(8)});
  EXPECT_TRUE(MapsInto(a, b));
  EXPECT_FALSE(MapsInto(a, c));
}

TEST(HomomorphismTest, ColorsPinFreeVariables) {
  // Without colors, the 4-path folds onto a single edge; with colors on the
  // endpoints it cannot.
  ConjunctiveQuery path;
  path.AddAtomVars("r", {"X", "Y"});
  path.AddAtomVars("r", {"Y", "Z"});
  path.SetFreeByName({"X", "Z"});
  ConjunctiveQuery colored = path.Colored();
  ConjunctiveQuery reduced = colored.WithoutAtom(0);
  EXPECT_FALSE(MapsInto(colored, reduced));
}

TEST(HomomorphismTest, ForcedAssignmentRestrictsSearch) {
  ConjunctiveQuery a;
  a.AddAtomVars("r", {"X", "Y"});
  ConjunctiveQuery b;
  b.AddAtomVars("r", {"U", "V"});
  QueryTarget target(b);
  Homomorphism forced;
  forced[a.VarByName("X")] = static_cast<std::int64_t>(b.VarByName("V"));
  // Forcing X -> V leaves no way to satisfy r(X,Y): V has no outgoing edge.
  EXPECT_FALSE(HomomorphismExists(a, target, forced));
}

TEST(HomomorphismTest, HomEquivalentQueries) {
  ConjunctiveQuery q = MakeQn1(3);
  ConjunctiveQuery core = ComputeColoredCore(q);
  EXPECT_TRUE(HomEquivalent(q.Colored(), core.Colored()));
}

// --- cores ------------------------------------------------------------------

TEST(CoreTest, TriangleIsItsOwnCore) {
  ConjunctiveQuery tri;
  tri.AddAtomVars("e", {"X", "Y"});
  tri.AddAtomVars("e", {"Y", "Z"});
  tri.AddAtomVars("e", {"Z", "X"});
  EXPECT_EQ(ComputeCoreSubquery(tri).NumAtoms(), 3u);
}

TEST(CoreTest, DoubledEdgeCollapses) {
  ConjunctiveQuery q;
  q.AddAtomVars("e", {"X", "Y"});
  q.AddAtomVars("e", {"U", "V"});
  EXPECT_EQ(ComputeCoreSubquery(q).NumAtoms(), 1u);
}

TEST(CoreTest, Q0ColoredCoreDropsOneBranch) {
  // Figure 3(a) / Example 3.5: the core of color(Q0) drops one of the two
  // symmetric subtask branches — either st(D,G), rr(G,H) (keeping F, the
  // core drawn in the paper) or st(D,F), rr(F,H) (its symmetric twin).
  ConjunctiveQuery q = MakeQ0();
  ConjunctiveQuery core = ComputeColoredCore(q);
  EXPECT_EQ(core.NumAtoms(), 7u);
  bool has_f = core.AllVars().Contains(q.VarByName("F"));
  bool has_g = core.AllVars().Contains(q.VarByName("G"));
  EXPECT_NE(has_f, has_g);  // exactly one branch survives
  // All free variables survive.
  EXPECT_TRUE(q.free_vars().IsSubsetOf(core.AllVars()));
  // The surviving atoms include exactly one st and two rr atoms.
  int st = 0, rr = 0;
  for (const Atom& a : core.atoms()) {
    st += a.relation == "st" ? 1 : 0;
    rr += a.relation == "rr" ? 1 : 0;
  }
  EXPECT_EQ(st, 1);
  EXPECT_EQ(rr, 2);
}

TEST(CoreTest, Qn1ColoredCoreIsChainPlusPendant) {
  // Example A.2 / Figure 11(b): the core keeps the X-chain and one pendant
  // r(Xn, Yn); all other Y variables vanish.
  const int n = 4;
  ConjunctiveQuery q = MakeQn1(n);
  ConjunctiveQuery core = ComputeColoredCore(q);
  EXPECT_EQ(core.NumAtoms(), static_cast<std::size_t>(n - 1 + 1));
  IdSet vars = core.AllVars();
  for (int i = 1; i <= n; ++i) {
    EXPECT_TRUE(vars.Contains(q.VarByName("X" + std::to_string(i))));
  }
  int y_count = 0;
  for (int i = 1; i <= n; ++i) {
    y_count += vars.Contains(q.VarByName("Y" + std::to_string(i))) ? 1 : 0;
  }
  EXPECT_EQ(y_count, 1);
}

TEST(CoreTest, Qn2ColoredCoreIsSingleAtom) {
  // Theorem A.3: the core of the Boolean biclique query is one atom.
  ConjunctiveQuery q = MakeQn2(3);
  EXPECT_EQ(ComputeColoredCore(q).NumAtoms(), 1u);
}

TEST(CoreTest, CoreIsHomEquivalentToQuery) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomQueryParams p;
    p.num_vars = 5;
    p.num_atoms = 5;
    p.max_arity = 2;
    p.num_free = 1;
    p.num_relations = 2;
    p.seed = seed;
    ConjunctiveQuery q = MakeRandomQuery(p);
    ConjunctiveQuery colored = q.Colored();
    ConjunctiveQuery core_colored = ComputeCoreSubquery(colored);
    EXPECT_TRUE(HomEquivalent(colored, core_colored)) << "seed " << seed;
    // Minimality: no further atom is deletable.
    for (std::size_t i = 0; i < core_colored.NumAtoms(); ++i) {
      EXPECT_FALSE(HomomorphismExists(
          core_colored, QueryTarget(core_colored.WithoutAtom(i))))
          << "seed " << seed << " atom " << i;
    }
  }
}

TEST(CoreTest, EnumerateColoredCoresFindsBothQ0Cores) {
  // Example 3.5: Q0 has two symmetric substructure cores (the F-branch and
  // the G-branch).
  ConjunctiveQuery q = MakeQ0();
  std::vector<ConjunctiveQuery> cores = EnumerateColoredCores(q, 8);
  EXPECT_EQ(cores.size(), 2u);
  bool has_f = false, has_g = false;
  for (const ConjunctiveQuery& core : cores) {
    if (core.AllVars().Contains(q.VarByName("F"))) has_f = true;
    if (core.AllVars().Contains(q.VarByName("G"))) has_g = true;
  }
  EXPECT_TRUE(has_f);
  EXPECT_TRUE(has_g);
}

TEST(CoreTest, EnumerationRespectsCap) {
  ConjunctiveQuery q = MakeQ0();
  EXPECT_EQ(EnumerateColoredCores(q, 1).size(), 1u);
}

// --- Lemma 4.3: consistency-based oracle ------------------------------------

TEST(ConsistencyOracleTest, AgreesWithExactOnRandomQueries) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    RandomQueryParams p;
    p.num_vars = 5;
    p.num_atoms = 4;
    p.max_arity = 2;
    p.num_relations = 2;
    p.force_acyclic = true;  // acyclic cores have width 1: oracle is exact
    p.seed = seed;
    ConjunctiveQuery q = MakeRandomQuery(p);
    for (std::size_t i = 0; i < q.NumAtoms(); ++i) {
      ConjunctiveQuery reduced = q.WithoutAtom(i);
      bool exact = HomomorphismExists(q, QueryTarget(reduced));
      bool via_consistency = HomomorphismExistsViaConsistency(q, reduced, 2);
      EXPECT_EQ(exact, via_consistency) << "seed " << seed << " atom " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 50);
}

TEST(ConsistencyOracleTest, Lemma43CoreMatchesExactCore) {
  // Q0's colored core has generalized hypertree width 2, so the k=2
  // consistency oracle computes the same core as the exact oracle.
  ConjunctiveQuery q = MakeQ0();
  ConjunctiveQuery exact = ComputeColoredCore(q);
  ConjunctiveQuery via = ComputeColoredCoreViaConsistency(q, 2);
  EXPECT_EQ(exact.NumAtoms(), via.NumAtoms());
  EXPECT_TRUE(HomEquivalent(exact.Colored(), via.Colored()));
}

// --- pairwise consistency ---------------------------------------------------

TEST(PairwiseConsistencyTest, PropagatesEmptiness) {
  std::vector<Rel> views{MakeRel(IdSet{0, 1}, {{1, 2}}),
                         Rel(IdSet{1, 2})};  // the second is empty
  EXPECT_FALSE(EnforcePairwiseConsistency(&views));
}

TEST(PairwiseConsistencyTest, ReachesFixpointAcrossChain) {
  // r(0,1) = {(1,2),(5,6)}, r(1,2) = {(2,3)}, r(2,3) = {(3,4)}:
  // only the 1-2-3-4 chain survives.
  std::vector<Rel> views{MakeRel(IdSet{0, 1}, {{1, 2}, {5, 6}}),
                         MakeRel(IdSet{1, 2}, {{2, 3}}),
                         MakeRel(IdSet{2, 3}, {{3, 4}})};
  ASSERT_TRUE(EnforcePairwiseConsistency(&views));
  EXPECT_EQ(views[0].size(), 1u);
  EXPECT_TRUE(views[0].table()->ContainsRow(std::vector<Value>{1, 2}));
}

}  // namespace
}  // namespace sharpcq
