#include "reductions/color_elimination.h"

#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "count/enumeration.h"
#include "solver/core.h"
#include "solver/hom_target.h"
#include "solver/homomorphism.h"
#include "util/check.h"

namespace sharpcq {

namespace {

using Int = __int128;

Int AbsInt(Int x) { return x < 0 ? -x : x; }

Int GcdInt(Int a, Int b) {
  a = AbsInt(a);
  b = AbsInt(b);
  while (b != 0) {
    Int t = a % b;
    a = b;
    b = t;
  }
  return a == 0 ? 1 : a;
}

// Exact rational arithmetic for the (f+1)x(f+1) Vandermonde solve. Small
// dimensions; numerators carry oracle counts.
struct Frac {
  Int n = 0;
  Int d = 1;

  void Normalize() {
    if (d < 0) {
      n = -n;
      d = -d;
    }
    Int g = GcdInt(n, d);
    n /= g;
    d /= g;
  }
  static Frac Of(Int value) { return Frac{value, 1}; }

  friend Frac operator+(Frac a, Frac b) {
    Frac r{a.n * b.d + b.n * a.d, a.d * b.d};
    r.Normalize();
    return r;
  }
  friend Frac operator-(Frac a, Frac b) {
    Frac r{a.n * b.d - b.n * a.d, a.d * b.d};
    r.Normalize();
    return r;
  }
  friend Frac operator*(Frac a, Frac b) {
    Frac r{a.n * b.n, a.d * b.d};
    r.Normalize();
    return r;
  }
  friend Frac operator/(Frac a, Frac b) {
    SHARPCQ_CHECK(b.n != 0);
    Frac r{a.n * b.d, a.d * b.n};
    r.Normalize();
    return r;
  }
  bool IsZero() const { return n == 0; }
};

// Solves M x = rhs by Gaussian elimination over exact rationals.
std::vector<Frac> SolveLinearSystem(std::vector<std::vector<Frac>> m,
                                    std::vector<Frac> rhs) {
  const std::size_t n = rhs.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    while (pivot < n && m[pivot][col].IsZero()) ++pivot;
    SHARPCQ_CHECK_MSG(pivot < n, "singular interpolation system");
    std::swap(m[pivot], m[col]);
    std::swap(rhs[pivot], rhs[col]);
    for (std::size_t row = 0; row < n; ++row) {
      if (row == col || m[row][col].IsZero()) continue;
      Frac factor = m[row][col] / m[col][col];
      for (std::size_t c = col; c < n; ++c) {
        m[row][c] = m[row][c] - factor * m[col][c];
      }
      rhs[row] = rhs[row] - factor * rhs[col];
    }
  }
  std::vector<Frac> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = rhs[i] / m[i][i];
  return x;
}

// Element codes of the product structure D: dense ids for pairs (X, b).
class PairCoder {
 public:
  Value CodeOf(VarId var, Value b) {
    auto [it, inserted] = codes_.emplace(std::make_pair(var, b),
                                         static_cast<Value>(codes_.size()));
    return it->second;
  }

 private:
  std::map<std::pair<VarId, Value>, Value> codes_;
};

// Per-variable domains r_X^B read from the color relations of `b`.
// Returns false if some variable has no color relation.
bool ReadColorDomains(const ConjunctiveQuery& q, const Database& b,
                      std::map<VarId, std::vector<Value>>* domains) {
  for (VarId v : q.AllVars()) {
    std::string rel = ConjunctiveQuery::ColorRelationName(q.VarName(v));
    if (!b.HasRelation(rel)) return false;
    const Table& r = *b.table(rel);
    SHARPCQ_CHECK(r.arity() == 1);
    std::vector<Value>& dom = (*domains)[v];
    dom.assign(r.Column(0).begin(), r.Column(0).end());
    std::sort(dom.begin(), dom.end());
  }
  return true;
}

}  // namespace

std::size_t CountFreeAutomorphismRestrictions(const ConjunctiveQuery& q) {
  QueryTarget target(q);
  IdSet vars = q.AllVars();
  std::set<std::vector<std::int64_t>> restrictions;
  ForEachHomomorphism(q, target, [&](const Homomorphism& h) {
    // Automorphism test: the map must permute the variables (finite
    // bijective endomorphisms of finite structures are automorphisms).
    std::set<std::int64_t> image;
    bool bijective = true;
    for (VarId v : vars) {
      auto it = h.find(v);
      if (it == h.end() || !QueryTarget::IsVarCode(it->second) ||
          !image.insert(it->second).second) {
        bijective = false;
        break;
      }
    }
    if (bijective) {
      // I contains maps free(Q) -> free(Q): discard automorphisms whose
      // restriction leaves the free set.
      std::vector<std::int64_t> restriction;
      bool into_free = true;
      for (VarId v : q.free_vars()) {
        std::int64_t image = h.at(v);
        if (!q.free_vars().Contains(QueryTarget::VarOfCode(image))) {
          into_free = false;
          break;
        }
        restriction.push_back(image);
      }
      if (into_free) restrictions.insert(std::move(restriction));
    }
    return true;
  });
  return restrictions.size();
}

CountInt CountFullColorDirect(const ConjunctiveQuery& q, const Database& b) {
  return CountByBacktracking(q.FullColored(), b);
}

std::optional<CountInt> CountFullColorViaOracle(const ConjunctiveQuery& q,
                                                const Database& b,
                                                const CountOracle& oracle) {
  // Lemma 5.10's hypothesis: color(Q) is a core.
  ConjunctiveQuery colored = q.Colored();
  if (ComputeCoreSubquery(colored).NumAtoms() != colored.NumAtoms()) {
    return std::nullopt;
  }
  // The construction views Q as a structure over variables only.
  for (const Atom& a : q.atoms()) {
    for (const Term& t : a.terms) {
      if (!t.is_var()) return std::nullopt;
    }
  }
  std::map<VarId, std::vector<Value>> domains;
  if (!ReadColorDomains(q, b, &domains)) return std::nullopt;

  std::vector<VarId> free(q.free_vars().begin(), q.free_vars().end());
  const std::size_t f = free.size();

  // D_{j,T} builder: elements (X, b) for X outside T; j copies (X, b, k)
  // for X in T. Relations: all copy-combinations of the product tuples.
  auto build_djt = [&](const IdSet& t, std::size_t j) {
    DatabaseBuilder d;
    PairCoder coder;
    auto codes_of = [&](VarId var, Value value) {
      std::vector<Value> out;
      if (t.Contains(var)) {
        for (std::size_t k = 0; k < j; ++k) {
          // Distinct codes per copy: fold k into the value space.
          out.push_back(coder.CodeOf(var, value * static_cast<Value>(j + 1) +
                                              static_cast<Value>(k + 1)));
        }
      } else {
        out.push_back(coder.CodeOf(var, value * static_cast<Value>(j + 1)));
      }
      return out;
    };

    for (const Atom& a : q.atoms()) {
      const Table& rb = *b.table(a.relation);
      d.DeclareRelation(a.relation, a.arity());
      for (std::size_t row = 0; row < rb.rows(); ++row) {
        // Check (Xi, bi) in D, i.e. bi in dom(Xi); handle repeated
        // variables by the same per-position pairing as the lemma's
        // product structure.
        bool ok = true;
        std::vector<std::vector<Value>> position_codes(a.terms.size());
        for (std::size_t p = 0; p < a.terms.size() && ok; ++p) {
          VarId var = a.terms[p].var;
          const std::vector<Value>& dom = domains[var];
          const Value value = rb.at(row, static_cast<int>(p));
          ok = std::binary_search(dom.begin(), dom.end(), value);
          if (ok) position_codes[p] = codes_of(var, value);
        }
        if (!ok) continue;
        // Cross product of the per-position copy choices.
        std::vector<Value> out(a.terms.size());
        auto emit = [&](auto&& self, std::size_t p) -> void {
          if (p == a.terms.size()) {
            d.AddTuple(a.relation, std::span<const Value>(out));
            return;
          }
          for (Value code : position_codes[p]) {
            out[p] = code;
            self(self, p + 1);
          }
        };
        emit(emit, 0);
      }
    }
    return std::move(d).Build();
  };

  // For each T: interpolate N_{T,i} (i = 0..f) from |Q(D_{j,T})| at
  // j = 1..f+1, then keep N_T = N_{T,f}.
  std::vector<CountInt> n_t_values;
  std::vector<IdSet> subsets;
  // Enumerate subsets of free (2^f of them).
  SHARPCQ_CHECK_MSG(f <= 20, "too many free variables for the reduction");
  for (std::size_t mask = 0; mask < (std::size_t{1} << f); ++mask) {
    IdSet t;
    for (std::size_t i = 0; i < f; ++i) {
      if (mask & (std::size_t{1} << i)) t.Insert(free[i]);
    }
    subsets.push_back(std::move(t));
  }

  for (const IdSet& t : subsets) {
    std::vector<std::vector<Frac>> m(f + 1, std::vector<Frac>(f + 1));
    std::vector<Frac> rhs(f + 1);
    for (std::size_t j = 1; j <= f + 1; ++j) {
      Database djt = build_djt(t, j);
      CountInt count = oracle(q, djt);
      rhs[j - 1] = Frac::Of(static_cast<Int>(count));
      Int power = 1;
      for (std::size_t i = 0; i <= f; ++i) {
        m[j - 1][i] = Frac::Of(power);
        power *= static_cast<Int>(j);
      }
    }
    std::vector<Frac> solution = SolveLinearSystem(std::move(m),
                                                   std::move(rhs));
    Frac n_t = solution[f];
    SHARPCQ_CHECK_MSG(n_t.d == 1 && n_t.n >= 0,
                      "interpolation produced a non-integer N_T");
    n_t_values.push_back(static_cast<CountInt>(n_t.n));
  }

  // Inclusion-exclusion: |N'| = sum over T of (-1)^{f - |T|} N_T.
  Int n_prime = 0;
  for (std::size_t i = 0; i < subsets.size(); ++i) {
    Int sign = ((f - subsets[i].size()) % 2 == 0) ? 1 : -1;
    n_prime += sign * static_cast<Int>(n_t_values[i]);
  }
  SHARPCQ_CHECK_MSG(n_prime >= 0, "inclusion-exclusion went negative");

  std::size_t aut = CountFreeAutomorphismRestrictions(q);
  SHARPCQ_CHECK(aut > 0);
  SHARPCQ_CHECK_MSG(n_prime % static_cast<Int>(aut) == 0,
                    "automorphism count does not divide |N'|");
  return static_cast<CountInt>(n_prime / static_cast<Int>(aut));
}

}  // namespace sharpcq
