#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <unordered_set>

namespace perfbench {

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string ToCsv(const Relation& relation) {
  std::string out;
  out.reserve(relation.rows.size() * 6);
  for (std::size_t i = 0; i < relation.rows.size(); ++i) {
    out += std::to_string(relation.rows[i]);
    out += (i + 1) % relation.arity == 0 ? '\n' : ',';
  }
  return out;
}

std::string Query::Text() const {
  std::string out = "Q(";
  for (std::size_t i = 0; i < free.size(); ++i) {
    if (i > 0) out += ',';
    out += free[i];
  }
  out += ") <- ";
  for (std::size_t a = 0; a < atoms.size(); ++a) {
    if (a > 0) out += ", ";
    out += atoms[a].relation + "(";
    for (std::size_t i = 0; i < atoms[a].vars.size(); ++i) {
      if (i > 0) out += ',';
      out += atoms[a].vars[i];
    }
    out += ')';
  }
  return out;
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "serve_hot") return Workload::kServeHot;
  if (name == "serve_ingest") return Workload::kServeIngest;
  if (name == "count_heavy") return Workload::kCountHeavy;
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kServeHot:
      return "serve_hot";
    case Workload::kServeIngest:
      return "serve_ingest";
    case Workload::kCountHeavy:
      return "count_heavy";
  }
  return "?";
}

namespace {

// `rows` distinct pairs drawn uniformly from [0,d1) x [0,d2).
Relation RandomPairs(const std::string& name, std::size_t rows,
                     std::int64_t d1, std::int64_t d2, Rng* rng) {
  Relation r{name, 2, {}};
  std::unordered_set<std::int64_t> seen;
  while (seen.size() < rows) {
    std::int64_t a = static_cast<std::int64_t>(rng->Below(d1));
    std::int64_t b = static_cast<std::int64_t>(rng->Below(d2));
    if (seen.insert(a * d2 + b).second) {
      r.rows.push_back(a);
      r.rows.push_back(b);
    }
  }
  return r;
}

Relation Unary(const std::string& name, const std::vector<std::int64_t>& v) {
  return Relation{name, 1, v};
}

// Parses "Q(A,C) <- r(A,B), s(B,C)" written by this file (no constants).
Query Q(const std::string& name, std::string_view text) {
  Query q;
  q.name = name;
  auto ident_list = [](std::string_view inner) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= inner.size() && !inner.empty()) {
      std::size_t comma = inner.find(',', start);
      std::string_view item = inner.substr(
          start, comma == std::string_view::npos ? std::string_view::npos
                                                 : comma - start);
      while (!item.empty() && item.front() == ' ') item.remove_prefix(1);
      out.emplace_back(item);
      if (comma == std::string_view::npos) break;
      start = comma + 1;
    }
    return out;
  };
  std::size_t open = text.find('(');
  std::size_t close = text.find(')');
  q.free = ident_list(text.substr(open + 1, close - open - 1));
  std::size_t pos = text.find("<-") + 2;
  while (true) {
    std::size_t lp = text.find('(', pos);
    if (lp == std::string_view::npos) break;
    std::size_t rp = text.find(')', lp);
    std::string_view rel = text.substr(pos, lp - pos);
    while (!rel.empty() && (rel.front() == ' ' || rel.front() == ','))
      rel.remove_prefix(1);
    q.atoms.push_back(
        Atom{std::string(rel), ident_list(text.substr(lp + 1, rp - lp - 1))});
    pos = rp + 1;
  }
  return q;
}

// Isomorphism-invariant key: the lexicographically least rendering over all
// renamings of the variables (queries here have at most seven variables).
std::string CanonicalKey(const Query& q) {
  std::vector<std::string> vars;
  for (const Atom& a : q.atoms)
    for (const std::string& v : a.vars)
      if (std::find(vars.begin(), vars.end(), v) == vars.end())
        vars.push_back(v);
  std::vector<int> perm(vars.size());
  std::iota(perm.begin(), perm.end(), 0);
  auto id = [&](const std::string& v) {
    return perm[std::find(vars.begin(), vars.end(), v) - vars.begin()];
  };
  std::string best;
  do {
    std::vector<std::string> parts;
    for (const Atom& a : q.atoms) {
      std::string s = a.relation + "(";
      for (const std::string& v : a.vars) s += char('a' + id(v));
      parts.push_back(s);
    }
    std::sort(parts.begin(), parts.end());
    std::string free;
    for (const std::string& v : q.free) free += char('a' + id(v));
    std::sort(free.begin(), free.end());
    std::string key = free + "|";
    for (const std::string& p : parts) key += p;
    if (best.empty() || key < best) best = key;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

// A random free-connex acyclic shape over `relations`: atoms grow as a
// tree (each new atom shares one variable with an earlier one), and the
// free variables are exactly those of a prefix of the atoms, which is
// connected. Such shapes have #-hypertree width 1, so a fresh one costs a
// planner width search and a short execution.
Query NovelShape(Rng* rng, int index,
                 const std::vector<std::string>& relations) {
  Query q;
  q.name = "novel" + std::to_string(index);
  int atoms = 3 + static_cast<int>(rng->Below(3));
  std::vector<std::string> vars = {"V0"};
  for (int a = 0; a < atoms; ++a) {
    std::string shared = vars[rng->Below(vars.size())];
    std::string fresh = "V" + std::to_string(vars.size());
    vars.push_back(fresh);
    Atom atom{relations[rng->Below(relations.size())], {shared, fresh}};
    if (rng->Below(2) == 1) std::swap(atom.vars[0], atom.vars[1]);
    q.atoms.push_back(atom);
  }
  int prefix = 1 + static_cast<int>(rng->Below(atoms));
  for (int a = 0; a < prefix; ++a)
    for (const std::string& v : q.atoms[a].vars)
      if (std::find(q.free.begin(), q.free.end(), v) == q.free.end())
        q.free.push_back(v);
  return q;
}

void AddServeData(Inputs* in, Rng* rng) {
  // At most a few thousand rows per relation: the served data fits in L2,
  // and no intermediate reaches the engine's morsel threshold (16K probe
  // rows), so each request executes on its connection's thread and the
  // serving path, not the kernel, dominates it. count_heavy covers morsels.
  for (int i = 1; i <= 4; ++i)
    in->relations.push_back(
        RandomPairs("s" + std::to_string(i), 3000, 1500, 1500, rng));
  for (int i = 1; i <= 4; ++i)
    in->relations.push_back(
        RandomPairs("t" + std::to_string(i), 120, 40, 40, rng));
  // Hot shapes in popularity order (requests draw them Zipf-style).
  in->queries = {
      Q("path2", "Q(A,C) <- s1(A,B), s2(B,C)"),
      Q("star3", "Q(X,A,B,C) <- s1(X,A), s2(X,B), s3(X,C)"),
      Q("triangle", "Q(A) <- s1(A,B), s2(B,C), s3(C,A)"),
      Q("path4", "Q(A) <- s1(A,B), s2(B,C), s3(C,D), s4(D,E)"),
      Q("q1", "Q(A,C) <- t1(A,B), t2(B,C), t3(C,D), t4(D,A)"),
      Q("star3_leaves", "Q(A,B,C) <- s1(X,A), s2(X,B), s3(X,C)"),
      Q("triangle_t", "Q(A) <- t1(A,B), t2(B,C), t3(C,A)"),
      Q("cycle4_t", "Q(A,B,C,D) <- t1(A,B), t2(B,C), t3(C,D), t4(D,A)"),
  };
  in->fixed = in->queries.size();
}

void AddHeavyData(Inputs* in, Rng* rng) {
  // 4-chain: auto picks a width-2 #-hypertree whose bag materialization
  // costs ~30x PS13 on this data.
  for (const char* r : {"ca", "cb", "cc", "cd"})
    in->relations.push_back(RandomPairs(r, 2000, 700, 700, rng));
  // 4-cycle with both endpoints free: the width-2 bag's intermediate
  // (6M rows) exceeds the last-level cache.
  for (const char* r : {"y1", "y2", "y3", "y4"})
    in->relations.push_back(RandomPairs(r, 2500, 150, 150, rng));
  // Skewed star: one big center (two rows per X), three full leaves, one
  // selective filter. The seed only relabels X (x -> a*x + b mod domain,
  // a coprime to the domain), so every seed costs the same.
  {
    const std::int64_t domain = 100000;
    const std::int64_t a = 1 + 2 * static_cast<std::int64_t>(rng->Below(5000));
    const std::int64_t mult = a % 5 == 0 ? a + 2 : a;
    const std::int64_t shift = static_cast<std::int64_t>(rng->Below(domain));
    auto label = [&](std::int64_t x) { return (x * mult + shift) % domain; };
    Relation center{"center", 2, {}};
    for (std::int64_t i = 0; i < 2 * domain; ++i) {
      center.rows.push_back(label(i % domain));
      center.rows.push_back(i);
    }
    in->relations.push_back(center);
    std::vector<std::int64_t> all(domain);
    for (std::int64_t x = 0; x < domain; ++x) all[x] = label(x);
    for (const char* r : {"la", "lb", "lc"})
      in->relations.push_back(Unary(r, all));
    std::vector<std::int64_t> sel;
    for (std::int64_t s = 0; s < 10; ++s) sel.push_back(label(s * domain / 10));
    in->relations.push_back(Unary("sel", sel));
  }
  // Qbar^h_2 (h = 6, Z domain 8) over Dbar: X0 is a key of rbar, which the
  // hybrid #b-decomposition exploits (Example 6.5).
  {
    const int h = 6;
    const std::int64_t m = std::int64_t{1} << h;
    const std::int64_t a_base = 1000000 + rng->Below(1000) * 1000;
    const std::int64_t z_base = 3000000 + rng->Below(1000) * 1000;
    const std::int64_t b = 10 + static_cast<std::int64_t>(rng->Below(100));
    const std::int64_t c = b + 1 + static_cast<std::int64_t>(rng->Below(100));
    Relation rbar{"rbar", h + 2, {}};
    Relation s{"qs", h + 1, {}};
    for (std::int64_t j = 0; j < m; ++j) {
      std::vector<std::int64_t> enc;
      std::int64_t parity = 0;
      for (int i = 1; i <= h; ++i) {
        std::int64_t bit = (j >> (i - 1)) & 1;
        parity ^= bit;
        enc.push_back(bit);
      }
      s.rows.push_back(parity);
      s.rows.insert(s.rows.end(), enc.begin(), enc.end());
      for (std::int64_t z = 0; z < 8; ++z) {
        rbar.rows.push_back(a_base + j);
        rbar.rows.insert(rbar.rows.end(), enc.begin(), enc.end());
        rbar.rows.push_back(z_base + z);
      }
    }
    in->relations.push_back(rbar);
    in->relations.push_back(s);
    for (int i = 1; i <= h; ++i)
      in->relations.push_back(
          Relation{"qw" + std::to_string(i), 2, {b, 0, c, 1}});
    Relation v{"qv", 2, {}};
    for (std::int64_t z = 0; z < 8; ++z) {
      v.rows.insert(v.rows.end(), {z_base + z, b, z_base + z, c});
    }
    in->relations.push_back(v);
  }
  // Star with four free leaves over degree-bounded data: no width-3
  // #-hypertree exists, so PS13 (Theorem 6.2) is the route.
  for (const char* r : {"f1", "f2", "f3", "f4"})
    in->relations.push_back(RandomPairs(r, 5000, 2500, 5000, rng));
  // The paper's workforce schema for Q0 (Example 1.1), entity ids in
  // disjoint ranges.
  {
    const std::int64_t machines = 150, workers = 300, tasks = 220,
                       projects = 80, subtasks = 220, resources = 150;
    const std::int64_t kM = 1000000, kW = 2000000, kT = 3000000,
                       kP = 4000000, kS = 5000000, kR = 6000000,
                       kI = 7000000;
    Relation mw{"mw", 3, {}};
    std::set<std::pair<std::int64_t, std::int64_t>> seen;
    while (seen.size() < 1500) {
      std::int64_t mm = kM + rng->Below(machines), ww = kW + rng->Below(workers);
      if (seen.emplace(mm, ww).second)
        mw.rows.insert(mw.rows.end(),
                       {mm, ww, 1 + static_cast<std::int64_t>(rng->Below(40))});
    }
    in->relations.push_back(mw);
    Relation wi{"wi", 2, {}};
    for (std::int64_t w = 0; w < workers; ++w)
      wi.rows.insert(wi.rows.end(), {kW + w, kI + w});
    in->relations.push_back(wi);
    auto shifted = [&](const char* name, std::size_t rows, std::int64_t base1,
                       std::int64_t n1, std::int64_t base2, std::int64_t n2) {
      Relation r = RandomPairs(name, rows, n1, n2, rng);
      for (std::size_t i = 0; i < r.rows.size(); i += 2) {
        r.rows[i] += base1;
        r.rows[i + 1] += base2;
      }
      return r;
    };
    in->relations.push_back(shifted("wt", 1500, kW, workers, kT, tasks));
    in->relations.push_back(shifted("pt", 600, kP, projects, kT, tasks));
    in->relations.push_back(shifted("st", 1500, kT, tasks, kS, subtasks));
    // rr's first column ranges over tasks and subtasks, so rr(D,H) and
    // rr(F,H) both join.
    Relation rr = shifted("rr", 2200, 0, tasks + subtasks, kR, resources);
    for (std::size_t i = 0; i < rr.rows.size(); i += 2)
      rr.rows[i] = rr.rows[i] < tasks ? kT + rr.rows[i]
                                      : kS + rr.rows[i] - tasks;
    in->relations.push_back(rr);
  }
  in->queries = {
      Q("chain4", "Q(A,E) <- ca(A,B), cb(B,C), cc(C,D), cd(D,E)"),
      Q("cycle4", "Q(A,C) <- y1(A,B), y2(B,C), y3(C,D), y4(D,A)"),
      Q("star_skew", "Q(X) <- center(X,P), la(X), lb(X), lc(X), sel(X)"),
      Q("qbar6",
        "Q(X0,X1,X2,X3,X4,X5,X6) <- rbar(X0,Y1,Y2,Y3,Y4,Y5,Y6,Z), "
        "qs(Y0,Y1,Y2,Y3,Y4,Y5,Y6), qw1(X1,Y1), qw2(X2,Y2), qw3(X3,Y3), "
        "qw4(X4,Y4), qw5(X5,Y5), qw6(X6,Y6), qv(Z,X1)"),
      Q("fstar4", "Q(A,B,C,D) <- f1(X,A), f2(X,B), f3(X,C), f4(X,D)"),
      Q("q0",
        "Q(A,B,C) <- mw(A,B,I), wt(B,D), wi(B,E), pt(C,D), st(D,F), "
        "st(D,G), rr(G,H), rr(F,H), rr(D,H)"),
  };
  in->queries[2].repeat = 4;  // star_skew: ~20 ms a call
  in->queries[4].repeat = 2;  // fstar4: ~150 ms a call
  in->fixed = in->queries.size();
}

// Zipf(1.1) over the hot shapes' popularity ranks: a skewed mix whose
// rarest shape still draws about 4% of requests (150 per 20 s run), enough
// for a steady per-shape median in query_geomean_ms.
int ZipfPick(std::size_t n, Rng* rng) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
    cdf[r] = total;
  }
  double u = rng->Unit() * total;
  for (std::size_t r = 0; r < n; ++r)
    if (u < cdf[r]) return static_cast<int>(r);
  return static_cast<int>(n - 1);
}

// Every 50th request is a never-seen shape (a plan-cache miss) and every
// 50th, at another offset, goes on a one-request connection: fixed 2%
// shares, so every seed sends the same number of each. 2% is small enough
// to leave the median to cached plans on persistent connections and large
// enough for 80 samples of each kind per 20 s run (server.connect_ms,
// engine.plan_cache_hit_ratio).
constexpr std::size_t kShareEvery = 50;
constexpr std::size_t kNovelSlot = 42;
constexpr std::size_t kOneShotSlot = 17;

Phase MakePhase(const std::string& name, double rate, double duration_ms,
                bool traced, bool ingest, Rng* rng, std::size_t fixed,
                std::size_t* novel) {
  Phase p{name, rate, duration_ms, traced, {}, {}};
  std::size_t n = static_cast<std::size_t>(rate * duration_ms / 1000.0);
  for (std::size_t i = 0; i < n; ++i) {
    ScheduledRequest r;
    r.due_ms = static_cast<double>(i) * 1000.0 / rate;
    if (i % kShareEvery == kNovelSlot) {
      r.query = static_cast<int>(fixed + (*novel)++);
    } else {
      r.query = ZipfPick(fixed, rng);
    }
    r.one_shot = i % kShareEvery == kOneShotSlot;
    p.requests.push_back(r);
  }
  if (ingest) {
    for (double t = 125.0; t < duration_ms; t += 1000.0 / kIngestRate)
      p.ingest_due_ms.push_back(t);
  }
  return p;
}

}  // namespace

Inputs MakeInputs(Workload workload, std::uint64_t seed, int seconds,
                  bool trace) {
  Inputs in;
  in.workload = workload;
  Rng data(seed * 0x9E3779B97F4A7C15ull + 1);
  if (workload == Workload::kCountHeavy) {
    AddHeavyData(&in, &data);
    return in;
  }
  AddServeData(&in, &data);

  Rng schedule(seed * 0x9E3779B97F4A7C15ull + 2);
  const bool ingest = workload == Workload::kServeIngest;
  const double total_ms = seconds * 1000.0;
  std::size_t novel = 0;
  if (!trace) {
    in.phases.push_back(MakePhase("base", kBaseRate, total_ms, false, ingest,
                                  &schedule, in.fixed, &novel));
  } else {
    in.phases.push_back(MakePhase("untraced", kBaseRate, total_ms / 2, false,
                                  ingest, &schedule, in.fixed, &novel));
    in.phases.push_back(MakePhase("traced", kBaseRate, total_ms / 2, true,
                                  ingest, &schedule, in.fixed, &novel));
    if (workload == Workload::kServeHot) {
      for (double rate : kLadderRates)
        in.phases.push_back(MakePhase("ladder", rate, kLadderStepMs, false,
                                      false, &schedule, in.fixed, &novel));
    }
  }

  // Under ingest, never-seen shapes avoid the ingested relation s1: each is
  // sent once, so the oracle checks it once instead of per generation.
  const std::vector<std::string> novel_relations =
      ingest ? std::vector<std::string>{"s2", "s3", "s4"}
             : std::vector<std::string>{"s1", "s2", "s3", "s4"};
  Rng shapes(seed * 0x9E3779B97F4A7C15ull + 3);
  std::set<std::string> seen;
  for (std::size_t i = 0; i < in.fixed; ++i)
    seen.insert(CanonicalKey(in.queries[i]));
  while (in.queries.size() < in.fixed + novel) {
    Query q = NovelShape(&shapes, static_cast<int>(in.queries.size() - in.fixed),
                         novel_relations);
    if (seen.insert(CanonicalKey(q)).second) in.queries.push_back(q);
  }

  if (ingest) {
    in.ingest_relation = "s1";
    Rng rows(seed * 0x9E3779B97F4A7C15ull + 4);
    std::size_t batches = 0;
    for (const Phase& p : in.phases) batches += p.ingest_due_ms.size();
    for (std::size_t b = 0; b < batches; ++b) {
      Relation batch{"s1", 2, {}};
      for (int i = 0; i < kIngestRows; ++i) {
        batch.rows.push_back(static_cast<std::int64_t>(rows.Below(1500)));
        batch.rows.push_back(static_cast<std::int64_t>(rows.Below(1500)));
      }
      in.ingest_batches.push_back(batch);
    }
  }
  return in;
}

std::vector<Relation> RelationsAtGeneration(const Inputs& inputs,
                                            std::uint64_t generation) {
  std::vector<Relation> out = inputs.relations;
  if (inputs.ingest_relation.empty() || generation < 2) return out;
  for (Relation& r : out) {
    if (r.name != inputs.ingest_relation) continue;
    std::size_t batches =
        std::min<std::size_t>(generation - 1, inputs.ingest_batches.size());
    for (std::size_t b = 0; b < batches; ++b)
      r.rows.insert(r.rows.end(), inputs.ingest_batches[b].rows.begin(),
                    inputs.ingest_batches[b].rows.end());
  }
  return out;
}

}  // namespace perfbench
