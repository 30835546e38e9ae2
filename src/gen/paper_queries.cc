#include "gen/paper_queries.h"

#include <random>
#include <set>
#include <string>
#include <vector>

#include "util/check.h"

namespace sharpcq {

namespace {

// Disjoint id ranges per entity type so accidental joins are impossible.
constexpr Value kMachineBase = 1000;
constexpr Value kWorkerBase = 2000;
constexpr Value kTaskBase = 3000;
constexpr Value kProjectBase = 4000;
constexpr Value kSubtaskBase = 5000;
constexpr Value kResourceBase = 6000;
constexpr Value kInfoBase = 7000;

// Adds `count` distinct random pairs (a_pick(), b_pick()) to `rel`.
template <typename FnA, typename FnB>
void AddRandomPairs(DatabaseBuilder* db, const std::string& rel, int count,
                    std::mt19937_64* rng, const FnA& a_pick,
                    const FnB& b_pick) {
  std::set<std::pair<Value, Value>> seen;
  int attempts = 0;
  while (static_cast<int>(seen.size()) < count && attempts < count * 20) {
    ++attempts;
    Value a = a_pick(rng);
    Value b = b_pick(rng);
    if (seen.emplace(a, b).second) db->AddTuple(rel, {a, b});
  }
}

std::string Xi(int i) { return "X" + std::to_string(i); }
std::string Yi(int i) { return "Y" + std::to_string(i); }

}  // namespace

ConjunctiveQuery MakeQ0() {
  ConjunctiveQuery q;
  q.AddAtomVars("mw", {"A", "B", "I"});
  q.AddAtomVars("wt", {"B", "D"});
  q.AddAtomVars("wi", {"B", "E"});
  q.AddAtomVars("pt", {"C", "D"});
  q.AddAtomVars("st", {"D", "F"});
  q.AddAtomVars("st", {"D", "G"});
  q.AddAtomVars("rr", {"G", "H"});
  q.AddAtomVars("rr", {"F", "H"});
  q.AddAtomVars("rr", {"D", "H"});
  q.SetFreeByName({"A", "B", "C"});
  return q;
}

Database MakeQ0Database(const Q0DatabaseParams& p) {
  std::mt19937_64 rng(p.seed);
  auto pick = [](Value base, int n) {
    return [base, n](std::mt19937_64* r) {
      return base + static_cast<Value>((*r)() % static_cast<std::uint64_t>(n));
    };
  };
  DatabaseBuilder db;
  // mw(machine, worker, hours)
  {
    std::set<std::pair<Value, Value>> seen;
    int attempts = 0;
    while (static_cast<int>(seen.size()) < p.mw_tuples &&
           attempts < p.mw_tuples * 20) {
      ++attempts;
      Value m = pick(kMachineBase, p.machines)(&rng);
      Value w = pick(kWorkerBase, p.workers)(&rng);
      if (seen.emplace(m, w).second) {
        db.AddTuple("mw", {m, w, static_cast<Value>(1 + rng() % 40)});
      }
    }
  }
  // wi(worker, info): one info row per worker.
  for (int w = 0; w < p.workers; ++w) {
    db.AddTuple("wi", {kWorkerBase + w, kInfoBase + w});
  }
  AddRandomPairs(&db, "wt", p.wt_tuples, &rng, pick(kWorkerBase, p.workers),
                 pick(kTaskBase, p.tasks));
  AddRandomPairs(&db, "pt", p.pt_tuples, &rng, pick(kProjectBase, p.projects),
                 pick(kTaskBase, p.tasks));
  // st(task, subtask) over tasks and subtasks; rr over tasks *and* subtasks
  // on the first column so that rr(D,H) and rr(F,H) both find tuples.
  AddRandomPairs(&db, "st", p.st_tuples, &rng, pick(kTaskBase, p.tasks),
                 pick(kSubtaskBase, p.subtasks));
  auto task_or_subtask = [&p](std::mt19937_64* r) {
    if ((*r)() % 2 == 0) {
      return kTaskBase +
             static_cast<Value>((*r)() % static_cast<std::uint64_t>(p.tasks));
    }
    return kSubtaskBase + static_cast<Value>(
                              (*r)() % static_cast<std::uint64_t>(p.subtasks));
  };
  AddRandomPairs(&db, "rr", p.rr_tuples, &rng, task_or_subtask,
                 pick(kResourceBase, p.resources));
  return std::move(db).Build();
}

ConjunctiveQuery MakeQ1() {
  ConjunctiveQuery q;
  q.AddAtomVars("s1", {"A", "B"});
  q.AddAtomVars("s2", {"B", "C"});
  q.AddAtomVars("s3", {"C", "D"});
  q.AddAtomVars("s4", {"D", "A"});
  q.SetFreeByName({"A", "C"});
  return q;
}

Database MakeQ1Database(int n, int tuples, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  DatabaseBuilder db;
  auto any = [n](std::mt19937_64* r) {
    return static_cast<Value>((*r)() % static_cast<std::uint64_t>(n));
  };
  for (const char* rel : {"s1", "s2", "s3", "s4"}) {
    db.DeclareRelation(rel, 2);
    AddRandomPairs(&db, rel, tuples, &rng, any, any);
  }
  return std::move(db).Build();
}

ConjunctiveQuery MakeQh2(int h) {
  SHARPCQ_CHECK(h >= 1);
  ConjunctiveQuery q;
  std::vector<std::string> r_vars = {"X0"};
  for (int i = 1; i <= h; ++i) r_vars.push_back(Yi(i));
  q.AddAtomVars("r", r_vars);
  std::vector<std::string> s_vars = {"Y0"};
  for (int i = 1; i <= h; ++i) s_vars.push_back(Yi(i));
  q.AddAtomVars("s", s_vars);
  std::vector<std::string> free = {"X0"};
  for (int i = 1; i <= h; ++i) {
    q.AddAtomVars("w" + std::to_string(i), {Xi(i), Yi(i)});
    free.push_back(Xi(i));
  }
  q.SetFreeByName(free);
  return q;
}

Database MakeQh2Database(int h) {
  SHARPCQ_CHECK(h >= 1 && h <= 24);
  const std::int64_t m = std::int64_t{1} << h;
  DatabaseBuilder db;
  constexpr Value kABase = 1000000;
  constexpr Value kB = 10;
  constexpr Value kC = 11;
  for (std::int64_t j = 0; j < m; ++j) {
    std::vector<Value> r_row = {kABase + j};
    std::vector<Value> s_row;
    int parity = 0;
    for (int i = 1; i <= h; ++i) {
      Value bit = (j >> (i - 1)) & 1;
      parity ^= static_cast<int>(bit);
      r_row.push_back(bit);
    }
    s_row.push_back(parity);
    s_row.insert(s_row.end(), r_row.begin() + 1, r_row.end());
    db.AddTuple("r", std::span<const Value>(r_row));
    db.AddTuple("s", std::span<const Value>(s_row));
  }
  for (int i = 1; i <= h; ++i) {
    db.AddTuple("w" + std::to_string(i), {kB, 0});
    db.AddTuple("w" + std::to_string(i), {kC, 1});
  }
  return std::move(db).Build();
}

Hypertree MakeQh2NaiveHypertree(const ConjunctiveQuery& q, int h) {
  // Atom order in MakeQh2: 0 = r, 1 = s, 2..h+1 = w_i.
  Hypertree ht;
  std::vector<int> parent;
  // Root: {X0, Y1..Yh} guarded by r.
  IdSet root_chi{q.VarByName("X0")};
  for (int i = 1; i <= h; ++i) root_chi.Insert(q.VarByName(Yi(i)));
  ht.chi.push_back(root_chi);
  ht.lambda.push_back({0});
  parent.push_back(-1);
  // Child: {Y0..Yh} guarded by s.
  IdSet s_chi{q.VarByName("Y0")};
  for (int i = 1; i <= h; ++i) s_chi.Insert(q.VarByName(Yi(i)));
  ht.chi.push_back(s_chi);
  ht.lambda.push_back({1});
  parent.push_back(0);
  // Children: {Xi, Yi} guarded by w_i.
  for (int i = 1; i <= h; ++i) {
    ht.chi.push_back(IdSet{q.VarByName(Xi(i)), q.VarByName(Yi(i))});
    ht.lambda.push_back({1 + i});
    parent.push_back(0);
  }
  ht.shape = TreeShape::FromParents(std::move(parent));
  return ht;
}

Hypertree MakeQh2MergedHypertree(const ConjunctiveQuery& q, int h) {
  Hypertree ht;
  std::vector<int> parent;
  // Root: {X0, Y0, Y1..Yh} guarded by {r, s}.
  IdSet root_chi{q.VarByName("X0"), q.VarByName("Y0")};
  for (int i = 1; i <= h; ++i) root_chi.Insert(q.VarByName(Yi(i)));
  ht.chi.push_back(root_chi);
  ht.lambda.push_back({0, 1});
  parent.push_back(-1);
  for (int i = 1; i <= h; ++i) {
    ht.chi.push_back(IdSet{q.VarByName(Xi(i)), q.VarByName(Yi(i))});
    ht.lambda.push_back({1 + i});
    parent.push_back(0);
  }
  ht.shape = TreeShape::FromParents(std::move(parent));
  return ht;
}

ConjunctiveQuery MakeQbarh2(int h) {
  SHARPCQ_CHECK(h >= 1);
  ConjunctiveQuery q;
  std::vector<std::string> r_vars = {"X0"};
  for (int i = 1; i <= h; ++i) r_vars.push_back(Yi(i));
  r_vars.push_back("Z");
  q.AddAtomVars("rbar", r_vars);
  std::vector<std::string> s_vars = {"Y0"};
  for (int i = 1; i <= h; ++i) s_vars.push_back(Yi(i));
  q.AddAtomVars("s", s_vars);
  std::vector<std::string> free = {"X0"};
  for (int i = 1; i <= h; ++i) {
    q.AddAtomVars("w" + std::to_string(i), {Xi(i), Yi(i)});
    free.push_back(Xi(i));
  }
  q.AddAtomVars("v", {"Z", "X1"});
  q.SetFreeByName(free);
  return q;
}

Database MakeQbarh2Database(int h, int z_domain) {
  SHARPCQ_CHECK(h >= 1 && h <= 20 && z_domain >= 1);
  const std::int64_t m = std::int64_t{1} << h;
  DatabaseBuilder db;
  constexpr Value kABase = 1000000;
  constexpr Value kZBase = 2000000;
  constexpr Value kB = 10;
  constexpr Value kC = 11;
  for (std::int64_t j = 0; j < m; ++j) {
    std::vector<Value> enc;
    int parity = 0;
    for (int i = 1; i <= h; ++i) {
      Value bit = (j >> (i - 1)) & 1;
      parity ^= static_cast<int>(bit);
      enc.push_back(bit);
    }
    std::vector<Value> s_row = {parity};
    s_row.insert(s_row.end(), enc.begin(), enc.end());
    db.AddTuple("s", std::span<const Value>(s_row));
    for (int z = 0; z < z_domain; ++z) {
      std::vector<Value> r_row = {kABase + j};
      r_row.insert(r_row.end(), enc.begin(), enc.end());
      r_row.push_back(kZBase + z);
      db.AddTuple("rbar", std::span<const Value>(r_row));
    }
  }
  for (int i = 1; i <= h; ++i) {
    db.AddTuple("w" + std::to_string(i), {kB, 0});
    db.AddTuple("w" + std::to_string(i), {kC, 1});
  }
  for (int z = 0; z < z_domain; ++z) {
    db.AddTuple("v", {kZBase + z, kB});
    db.AddTuple("v", {kZBase + z, kC});
  }
  return std::move(db).Build();
}

ConjunctiveQuery MakeQn1(int n) {
  SHARPCQ_CHECK(n >= 1);
  ConjunctiveQuery q;
  std::vector<std::string> free;
  for (int i = 1; i <= n; ++i) {
    q.AddAtomVars("r", {Xi(i), Yi(i)});
    free.push_back(Xi(i));
  }
  for (int i = 1; i < n; ++i) q.AddAtomVars("r", {Xi(i), Xi(i + 1)});
  for (int i = 1; i < n; ++i) q.AddAtomVars("r", {Yi(i), Yi(i + 1)});
  q.SetFreeByName(free);
  return q;
}

Database MakeQn1CycleDatabase(int d) {
  DatabaseBuilder db;
  for (int i = 0; i < d; ++i) db.AddTuple("r", {i, (i + 1) % d});
  return std::move(db).Build();
}

Database MakeQn1RandomDatabase(int d, int edges, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  DatabaseBuilder db;
  db.DeclareRelation("r", 2);
  auto any = [d](std::mt19937_64* r) {
    return static_cast<Value>((*r)() % static_cast<std::uint64_t>(d));
  };
  AddRandomPairs(&db, "r", edges, &rng, any, any);
  return std::move(db).Build();
}

ConjunctiveQuery MakeQn2(int n) {
  SHARPCQ_CHECK(n >= 1);
  ConjunctiveQuery q;
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) {
      q.AddAtomVars("r", {Xi(i), Yi(j)});
    }
  }
  q.SetFree(IdSet{});
  return q;
}

ConjunctiveQuery MakeCliqueQuery(int k) {
  SHARPCQ_CHECK(k >= 2);
  ConjunctiveQuery q;
  std::vector<std::string> free;
  for (int i = 1; i <= k; ++i) free.push_back("V" + std::to_string(i));
  for (int i = 1; i <= k; ++i) {
    for (int j = i + 1; j <= k; ++j) {
      q.AddAtomVars("e",
                    {"V" + std::to_string(i), "V" + std::to_string(j)});
    }
  }
  q.SetFreeByName(free);
  return q;
}

Database MakeRandomGraphDatabase(int n, double p, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  DatabaseBuilder db;
  db.DeclareRelation("e", 2);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (coin(rng) < p) {
        db.AddTuple("e", {i, j});
        db.AddTuple("e", {j, i});
      }
    }
  }
  return std::move(db).Build();
}

}  // namespace sharpcq
