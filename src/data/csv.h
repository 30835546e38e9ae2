#ifndef SHARPCQ_DATA_CSV_H_
#define SHARPCQ_DATA_CSV_H_

#include <cstddef>
#include <functional>
#include <istream>
#include <ostream>
#include <span>
#include <string>

#include "data/database.h"
#include "data/value.h"

namespace sharpcq {

// Minimal CSV ingestion for examples and tooling: one tuple per line,
// comma-separated fields, no quoting. Fields that parse as integers become
// their numeric value; anything else is interned through `dict` (required
// if such fields appear). Blank lines and lines starting with '#' are
// skipped.

// Why a load failed. The distinction between a missing file and a
// malformed one matters to callers (the sharpcq CLI maps them to different
// exit codes: a missing file is an operator typo, a parse error is bad
// data).
enum class CsvStatus {
  kOk,
  kFileMissing,  // the path does not exist
  kIoError,      // the path exists but cannot be read
  kParseError,   // malformed content (bad field, arity mismatch, empty)
};

struct CsvResult {
  CsvStatus status = CsvStatus::kOk;
  std::size_t tuples = 0;   // tuples loaded (0 unless kOk)
  std::string message;      // human-readable reason when !ok()

  bool ok() const { return status == CsvStatus::kOk; }
  explicit operator bool() const { return ok(); }
};

// Loads one relation into `db`: a new relation, or the union of the
// stored rows and the parsed ones when `db` already holds it. `db` is left
// unchanged on failure, including a CSV whose arity differs from the
// stored relation's (kParseError).
CsvResult LoadRelationCsv(std::istream& in, const std::string& relation,
                          Database* db, ValueDict* dict = nullptr);

// Convenience: loads from a file path (kFileMissing when absent).
CsvResult LoadRelationCsvFile(const std::string& path,
                              const std::string& relation, Database* db,
                              ValueDict* dict = nullptr);

// The generic form: each parsed row goes to `sink` instead of a Database.
// Higher layers stream rows wherever they like without this module
// knowing about them — storage/snapshot.h builds its CSV -> snapshot
// ingest on this (data/ stays at the bottom of the layering).
using CsvRowSink = std::function<void(std::span<const Value>)>;
CsvResult ParseCsvToSink(std::istream& in, const CsvRowSink& sink,
                         ValueDict* dict = nullptr);
CsvResult ParseCsvFileToSink(const std::string& path, const CsvRowSink& sink,
                             ValueDict* dict = nullptr);

// Writes a relation as CSV (values rendered through `dict` when provided).
void WriteRelationCsv(const Database& db, const std::string& relation,
                      std::ostream& out, const ValueDict* dict = nullptr);

}  // namespace sharpcq

#endif  // SHARPCQ_DATA_CSV_H_
