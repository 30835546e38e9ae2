#include <gtest/gtest.h>

#include <sstream>

#include "data/csv.h"
#include "decomp/explain.h"
#include "gen/paper_queries.h"
#include "tests/test_util.h"

namespace sharpcq {
namespace {

TEST(CsvTest, LoadsNumericTuples) {
  std::istringstream in("1,2\n3,4\n# comment\n\n5,6\n");
  Database db;
  CsvResult loaded = LoadRelationCsv(in, "r", &db);
  ASSERT_TRUE(loaded.ok()) << loaded.message;
  EXPECT_EQ(loaded.tuples, 3u);
  EXPECT_EQ(db.table("r")->rows(), 3u);
  EXPECT_TRUE(db.table("r")->ContainsRow(std::vector<Value>{5, 6}));
}

TEST(CsvTest, SymbolicFieldsInterned) {
  std::istringstream in("alice,project_x\nbob,project_x\n");
  Database db;
  ValueDict dict;
  CsvResult loaded = LoadRelationCsv(in, "works_on", &db, &dict);
  ASSERT_TRUE(loaded.ok()) << loaded.message;
  EXPECT_EQ(loaded.tuples, 2u);
  ASSERT_TRUE(dict.Find("alice").has_value());
  EXPECT_TRUE(db.table("works_on")
                  ->ContainsRow(std::vector<Value>{*dict.Find("alice"),
                                                  *dict.Find("project_x")}));
}

TEST(CsvTest, RejectsSymbolsWithoutDict) {
  std::istringstream in("alice,1\n");
  Database db;
  CsvResult result = LoadRelationCsv(in, "r", &db);
  EXPECT_EQ(result.status, CsvStatus::kParseError);
  EXPECT_NE(result.message.find("ValueDict"), std::string::npos);
}

TEST(CsvTest, RejectsArityMismatch) {
  std::istringstream in("1,2\n3\n");
  Database db;
  CsvResult result = LoadRelationCsv(in, "r", &db);
  EXPECT_EQ(result.status, CsvStatus::kParseError);
  EXPECT_NE(result.message.find("arity"), std::string::npos);
}

TEST(CsvTest, RejectsEmptyFieldWithLineAndColumn) {
  // "1,,3" used to split as a 2-field row (empty pieces dropped), silently
  // locking the relation's arity to 2 when it was the first data line and
  // shifting values into the wrong columns on later lines.
  std::istringstream in("# header comment\n1,,3\n");
  Database db;
  CsvResult result = LoadRelationCsv(in, "r", &db);
  EXPECT_EQ(result.status, CsvStatus::kParseError);
  EXPECT_NE(result.message.find("line 2"), std::string::npos)
      << result.message;
  EXPECT_NE(result.message.find("column 2"), std::string::npos)
      << result.message;
  EXPECT_NE(result.message.find("empty field"), std::string::npos)
      << result.message;
}

TEST(CsvTest, RejectsWhitespaceOnlyField) {
  // Trimming reduces a whitespace-only field to empty; it must be rejected
  // like any other empty field, not shifted out of the row.
  std::istringstream in("1,2,3\n4,  ,6\n");
  Database db;
  CsvResult result = LoadRelationCsv(in, "r", &db);
  EXPECT_EQ(result.status, CsvStatus::kParseError);
  EXPECT_NE(result.message.find("line 2, column 2"), std::string::npos)
      << result.message;
}

TEST(CsvTest, RejectsTrailingEmptyFieldAsArityMismatch) {
  // A trailing comma now produces a real (empty) field, so "5,6," is a
  // 3-field row against an established arity of 2.
  std::istringstream in("1,2\n5,6,\n");
  Database db;
  CsvResult result = LoadRelationCsv(in, "r", &db);
  EXPECT_EQ(result.status, CsvStatus::kParseError);
  EXPECT_NE(result.message.find("arity"), std::string::npos)
      << result.message;
}

TEST(CsvTest, RejectsEmptyInput) {
  std::istringstream in("# only comments\n");
  Database db;
  EXPECT_EQ(LoadRelationCsv(in, "r", &db).status, CsvStatus::kParseError);
}

TEST(CsvTest, MissingFileDistinctFromParseError) {
  // The satellite fix of ISSUE 4: "file missing" and "bad content" used to
  // collapse into one nullopt; callers (the CLI's exit codes) need the
  // difference.
  Database db;
  CsvResult missing =
      LoadRelationCsvFile("/nonexistent/definitely_absent.csv", "r", &db);
  EXPECT_EQ(missing.status, CsvStatus::kFileMissing);
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.message.find("no such file"), std::string::npos);
}

TEST(CsvTest, RoundTripsThroughWrite) {
  std::istringstream in("7,-8\n9,10\n");
  Database db;
  ASSERT_TRUE(LoadRelationCsv(in, "r", &db).ok());
  std::ostringstream out;
  WriteRelationCsv(db, "r", out);
  std::istringstream back(out.str());
  Database db2;
  ASSERT_TRUE(LoadRelationCsv(back, "r", &db2).ok());
  EXPECT_TRUE(SameRel(Rel(IdSet{0, 1}, db.table("r")),
                      Rel(IdSet{0, 1}, db2.table("r"))));
}

TEST(ExplainTest, HypertreeRendering) {
  ConjunctiveQuery q = MakeQh2(2);
  Hypertree ht = MakeQh2MergedHypertree(q, 2);
  std::string text = ExplainHypertree(ht, q);
  // Root line mentions both guards and the merged chi label.
  EXPECT_NE(text.find("[r, s]"), std::string::npos) << text;
  EXPECT_NE(text.find("X0"), std::string::npos);
  // Children are indented.
  EXPECT_NE(text.find("\n  {"), std::string::npos) << text;
}

TEST(ExplainTest, BagTreeRenderingWithNamedViews) {
  ConjunctiveQuery q = MakeQ1();
  std::vector<std::pair<std::string, IdSet>> named = {
      {"v_all", q.AllVars()}};
  ViewSet views = ViewsFromNamedRelations(named);
  std::vector<IdSet> cover = q.BuildHypergraph().edges();
  auto result = FindTreeProjection(cover, views);
  ASSERT_TRUE(result.has_value());
  std::string text = ExplainBagTree(result->tree, views, q);
  EXPECT_NE(text.find("[v_all]"), std::string::npos) << text;
}

TEST(ExplainTest, GuardViewRendering) {
  ConjunctiveQuery q = MakeQ0();
  auto ht = FindHypertreeDecomposition(q, 2);
  ASSERT_TRUE(ht.has_value());
  std::string text = ExplainHypertree(*ht, q);
  // Every vertex line has a guard list.
  EXPECT_NE(text.find("["), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'),
            static_cast<std::ptrdiff_t>(ht->num_vertices()));
}

}  // namespace
}  // namespace sharpcq
