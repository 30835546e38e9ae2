#ifndef SHARPCQ_STORAGE_SNAPSHOT_H_
#define SHARPCQ_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "algebra/stats.h"
#include "data/csv.h"
#include "data/database.h"
#include "data/value.h"
#include "util/status.h"

namespace sharpcq {

// ---------------------------------------------------------------------------
// The sharpcq snapshot format, version 2. One file per database generation:
//
//   header          fixed 128 bytes: magic "SHARPCQ1", version, flags,
//                   section offsets/sizes, section checksums, total file
//                   size, and a checksum over the header bytes themselves
//   dict arena      the ValueDict in value-id order (id order IS the
//                   semantics: tuples store the ids), each entry a u32
//                   length + raw bytes
//   toc             one entry per relation, sorted by name: name, arity,
//                   row count, and per-column {absolute offset, checksum}
//   stats           per relation (toc order), per column: u64 distinct
//                   count, u64 max group size, 16 x u32 log2 degree
//                   histogram — the TableStats of algebra/stats.h, so a
//                   loaded generation's data profile costs zero index
//                   builds in both owned and mapped modes
//   column data     per relation, per column: rows * 8 bytes of int64
//                   values, every segment 8-byte aligned
//
// Version 1 files (104-byte header, no stats section) still load: the
// reader branches on the version field and leaves stats to be recomputed
// lazily on first use. Version 2 readers reject versions above their own.
//
// All integers are little-endian; a flags bit records the byte order and
// loading refuses a mismatch. Section checksums use the same splitmix64
// machinery as the in-memory hash indexes (util/hash.h).
//
// The writer is deterministic — relations sorted by name, rows sorted
// lexicographically and deduplicated, dictionary in id order — so the same
// logical database always produces byte-identical snapshots. Files are
// installed atomically: written to an exclusive temp file, fsynced, then
// renamed over the destination (the ursadb ExclusiveFile pattern), so a
// reader never observes a half-written snapshot.
// ---------------------------------------------------------------------------

inline constexpr std::uint64_t kSnapshotMagic =
    0x3151435052414853ULL;  // "SHARPCQ1" read as little-endian u64
inline constexpr std::uint32_t kSnapshotVersion = 2;
inline constexpr std::uint32_t kSnapshotVersionV1 = 1;
inline constexpr std::uint32_t kSnapshotFlagLittleEndian = 1u << 0;
inline constexpr std::size_t kSnapshotHeaderBytes = 128;    // current (v2)
inline constexpr std::size_t kSnapshotHeaderBytesV1 = 104;
// Serialized bytes per column in the stats section: distinct (u64),
// max_group (u64), and the log2 degree histogram (16 x u32).
inline constexpr std::size_t kSnapshotStatsBytesPerColumn =
    8 + 8 + kDegreeHistogramBuckets * 4;

struct SnapshotWriteStats {
  std::size_t relations = 0;
  std::size_t tuples = 0;       // after canonicalization (dedup)
  std::uint64_t bytes = 0;      // total file size
};

// Accumulates relations (columnar, in memory) and writes them as one
// snapshot file. Rows may be streamed in one at a time — CSV ingest pipes
// straight into AddRow without building a Database first (data/csv.h).
class SnapshotWriter {
 public:
  SnapshotWriter() = default;

  // Declares `relation` with `arity` (idempotent; arity mismatch aborts).
  void DeclareRelation(const std::string& relation, int arity);

  // Appends one row, declaring the relation on first use.
  void AddRow(const std::string& relation, std::span<const Value> row);

  // Appends every table of `db`, column by column.
  void AddDatabase(const Database& db);

  std::size_t relation_count() const { return relations_.size(); }
  std::size_t pending_rows() const;

  // The declared arity of `relation`, if declared (lets ingest surface an
  // arity conflict between two input files as an error instead of
  // tripping DeclareRelation's invariant check).
  std::optional<int> RelationArity(const std::string& relation) const;

  // Target format version: kSnapshotVersion (default) or kSnapshotVersionV1
  // for the pre-stats layout (round-trip tests, downgrade escapes). Any
  // other value aborts.
  void set_format_version(std::uint32_t version);

  // Canonicalizes (rows sorted + deduplicated per relation), serializes,
  // and installs the snapshot at `path` atomically. The writer is spent
  // afterwards. Returns nullopt with kIoError in *status on I/O failure
  // (including injected faults at the storage.* failpoint sites).
  std::optional<SnapshotWriteStats> Finish(const std::string& path,
                                           const ValueDict* dict,
                                           Status* status);

 private:
  struct Pending {
    int arity = 0;
    std::size_t rows = 0;
    std::vector<std::vector<Value>> cols;
  };
  // std::map: relations serialize in sorted name order by construction.
  std::map<std::string, Pending> relations_;
  std::uint32_t format_version_ = kSnapshotVersion;
};

// Parsed header + table of contents (no tuple data touched beyond the
// front matter). The `inspect` subcommand prints this.
struct SnapshotColumnInfo {
  std::uint64_t offset = 0;    // absolute file offset, 8-byte aligned
  std::uint64_t checksum = 0;  // over the column's `rows` values
};

struct SnapshotRelationInfo {
  std::string name;
  int arity = 0;
  std::uint64_t rows = 0;
  std::vector<SnapshotColumnInfo> columns;
  // Persisted per-column statistics (v2 snapshots; empty for v1). Size is
  // either 0 or exactly `arity`.
  std::vector<ColumnStats> stats;
};

struct SnapshotInfo {
  std::uint32_t version = 0;
  std::uint32_t flags = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t dict_count = 0;
  std::vector<SnapshotRelationInfo> relations;

  std::uint64_t TotalTuples() const;
};

// Validates magic, version, byte order, the header/dict/toc checksums, and
// every section bound, then returns the parsed front matter. Column data is
// not read. Returns nullopt on any mismatch — truncated files, foreign
// files, and flipped front-matter bytes all fail here (kCorruptData), and
// unreadable paths fail as kIoError/kNotFound — never as UB later.
std::optional<SnapshotInfo> ReadSnapshotInfo(const std::string& path,
                                             Status* status);

// How LoadSnapshot turns column segments into algebra::Table storage.
enum class SnapshotLoadMode {
  // Copy every column into process-owned buffers (TableBuilder) and verify
  // the per-column checksums on the way: cold-start cost O(data), fully
  // private memory, corruption detected at load.
  kOwned,
  // Alias the mapped file directly (Table::FromExternal over the shared
  // MemMap): cold-start cost O(header), pages shared across processes and
  // faulted in on first touch. Column checksums are NOT verified — that
  // would fault in every page; run VerifySnapshot when integrity matters
  // more than latency.
  kMapped,
};

struct LoadedSnapshot {
  Database db;      // tables alias the file's pages when mapped
  ValueDict dict;   // empty if the snapshot carried no dictionary
  SnapshotInfo info;
  SnapshotLoadMode mode = SnapshotLoadMode::kOwned;
};

std::optional<LoadedSnapshot> LoadSnapshot(const std::string& path,
                                           SnapshotLoadMode mode,
                                           Status* status);

// Full integrity pass: ReadSnapshotInfo plus every per-column checksum
// (touches all pages). True when the file is pristine; false with
// kCorruptData (validation failed) or kIoError (could not read) in *status.
bool VerifySnapshot(const std::string& path, Status* status);

// Convenience: snapshots `db` (+ optional dict) at `path` atomically.
std::optional<SnapshotWriteStats> WriteSnapshot(const Database& db,
                                                const ValueDict* dict,
                                                const std::string& path,
                                                Status* status);

// Streams one CSV relation straight into a snapshot writer via the
// data-layer row sink: CSV -> snapshot ingest never materializes a
// Database, so the peak footprint is the writer's columnar staging buffer
// alone (the sharpcq CLI's --out ingest path).
CsvResult LoadRelationCsvIntoWriter(std::istream& in,
                                    const std::string& relation,
                                    SnapshotWriter* writer,
                                    ValueDict* dict = nullptr);
CsvResult LoadRelationCsvFileIntoWriter(const std::string& path,
                                        const std::string& relation,
                                        SnapshotWriter* writer,
                                        ValueDict* dict = nullptr);

// The snapshot installer's primitive, reusable for small metadata files
// (the catalog manifest): write to an O_EXCL temp file, fsync, rename over
// `path`, fsync the directory. A crash leaves the old file or the new one,
// never a torn mix. Failpoint sites: storage.tmp_open, storage.write,
// storage.fsync, storage.rename.
bool AtomicWriteFile(const std::string& path,
                     std::span<const std::uint8_t> bytes, Status* status);

}  // namespace sharpcq

#endif  // SHARPCQ_STORAGE_SNAPSHOT_H_
