#include "data/csv.h"

#include <sys/stat.h>

#include <charconv>
#include <fstream>
#include <optional>
#include <string_view>

#include "util/failpoint.h"
#include "util/string_util.h"

namespace sharpcq {

namespace {

CsvResult Fail(CsvStatus status, std::string message) {
  CsvResult result;
  result.status = status;
  result.message = std::move(message);
  return result;
}

// Fields arrive as views into the current line; numeric parsing and
// dictionary interning both work without copying the field.
bool ParseField(std::string_view field, ValueDict* dict, Value* out,
                std::string* error) {
  if (!field.empty() &&
      (field[0] == '-' || (field[0] >= '0' && field[0] <= '9'))) {
    long long v = 0;
    auto [ptr, ec] = std::from_chars(field.data(), field.data() + field.size(),
                                     v, 10);
    if (ec == std::errc{} && ptr == field.data() + field.size()) {
      *out = static_cast<Value>(v);
      return true;
    }
  }
  if (dict == nullptr) {
    *error = "non-numeric field '" + std::string(field) +
             "' needs a ValueDict";
    return false;
  }
  *out = dict->Intern(field);
  return true;
}

// The shared parse loop; `emit` receives each parsed row.
CsvResult ParseCsv(std::istream& in, ValueDict* dict,
                   const CsvRowSink& emit) {
  CsvResult result;
  int arity = -1;
  std::string line;
  std::string error;
  std::size_t line_number = 0;
  std::vector<Value> row;
  while (std::getline(in, line)) {
    ++line_number;
    if (SHARPCQ_FAILPOINT("csv.row") != FailpointAction::kNone) {
      return Fail(CsvStatus::kIoError,
                  "line " + std::to_string(line_number) + ": injected fault");
    }
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    std::vector<std::string_view> fields = SplitAndTrimViews(stripped, ',');
    if (arity == -1) {
      arity = static_cast<int>(fields.size());
    } else if (static_cast<int>(fields.size()) != arity) {
      return Fail(CsvStatus::kParseError,
                  "line " + std::to_string(line_number) +
                      ": arity mismatch (expected " + std::to_string(arity) +
                      ")");
    }
    row.resize(fields.size());
    for (std::size_t i = 0; i < fields.size(); ++i) {
      // Empty fields are rejected rather than silently dropped: before the
      // split preserved them, a row like "1,,3" parsed as two fields and
      // either locked the relation's arity wrong (first line) or shifted
      // values into the wrong columns with no error.
      if (fields[i].empty()) {
        return Fail(CsvStatus::kParseError,
                    "line " + std::to_string(line_number) + ", column " +
                        std::to_string(i + 1) + ": empty field");
      }
      if (!ParseField(fields[i], dict, &row[i], &error)) {
        return Fail(CsvStatus::kParseError,
                    "line " + std::to_string(line_number) + ": " + error);
      }
    }
    emit(std::span<const Value>(row));
    ++result.tuples;
  }
  if (arity == -1) {
    return Fail(CsvStatus::kParseError, "no tuples in input");
  }
  return result;
}

// Open with the file-missing / unreadable distinction surfaced.
CsvResult OpenCsvFile(const std::string& path, std::ifstream* in) {
  if (SHARPCQ_FAILPOINT("csv.open") != FailpointAction::kNone) {
    return Fail(CsvStatus::kIoError, "open " + path + ": injected fault");
  }
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Fail(CsvStatus::kFileMissing, "no such file: " + path);
  }
  in->open(path);
  if (!*in) {
    return Fail(CsvStatus::kIoError, "cannot read " + path);
  }
  CsvResult ok;
  return ok;
}

}  // namespace

CsvResult LoadRelationCsv(std::istream& in, const std::string& relation,
                          Database* db, ValueDict* dict) {
  // Tables are immutable: the parsed rows go into one new table, after the
  // stored rows when the relation exists, and replace it only once the
  // whole input parsed. Build dedups, so the relation stays a set.
  std::shared_ptr<const Table> stored =
      db->HasRelation(relation) ? db->table(relation) : nullptr;
  std::optional<TableBuilder> builder;
  CsvResult result =
      ParseCsv(in, dict, [&](std::span<const Value> row) {
        if (!builder.has_value()) {
          builder.emplace(static_cast<int>(row.size()));
          if (stored != nullptr && stored->arity() == builder->arity()) {
            builder->ReserveRows(stored->rows());
            builder->AddTable(*stored);
          }
        }
        builder->AddRow(row);
      });
  if (!result.ok()) return result;
  if (stored != nullptr && stored->arity() != builder->arity()) {
    return Fail(CsvStatus::kParseError,
                "arity " + std::to_string(builder->arity()) +
                    " does not match relation " + relation + " (arity " +
                    std::to_string(stored->arity()) + ")");
  }
  db->SetTable(relation, std::move(*builder).Build());
  return result;
}

CsvResult LoadRelationCsvFile(const std::string& path,
                              const std::string& relation, Database* db,
                              ValueDict* dict) {
  std::ifstream in;
  if (CsvResult opened = OpenCsvFile(path, &in); !opened.ok()) return opened;
  return LoadRelationCsv(in, relation, db, dict);
}

CsvResult ParseCsvToSink(std::istream& in, const CsvRowSink& sink,
                         ValueDict* dict) {
  return ParseCsv(in, dict, sink);
}

CsvResult ParseCsvFileToSink(const std::string& path, const CsvRowSink& sink,
                             ValueDict* dict) {
  std::ifstream in;
  if (CsvResult opened = OpenCsvFile(path, &in); !opened.ok()) return opened;
  return ParseCsv(in, dict, sink);
}

void WriteRelationCsv(const Database& db, const std::string& relation,
                      std::ostream& out, const ValueDict* dict) {
  const Table& table = *db.table(relation);
  for (std::size_t i = 0; i < table.rows(); ++i) {
    for (int c = 0; c < table.arity(); ++c) {
      if (c > 0) out << ',';
      if (dict != nullptr) {
        out << dict->NameOf(table.at(i, c));
      } else {
        out << table.at(i, c);
      }
    }
    out << '\n';
  }
}

}  // namespace sharpcq
