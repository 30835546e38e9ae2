#include "storage/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <numeric>
#include <unordered_map>

#include "algebra/table.h"
#include "storage/mem_map.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/hash.h"

namespace sharpcq {

namespace {

// The header checksum sits in the last 8 header bytes, so its offset moved
// when v2 appended the stats-section triple (offset/bytes/checksum) to the
// header.
constexpr std::size_t kHeaderChecksumOffsetV1 = 0x60;
constexpr std::size_t kHeaderChecksumOffsetV2 = 0x78;

std::size_t Align8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

bool HostIsLittleEndian() {
  return std::endian::native == std::endian::little;
}

void SetStatus(Status* status, StatusCode code, std::string message) {
  if (status != nullptr) *status = Status(code, std::move(message));
}

// --- serialization helpers -------------------------------------------------

void AppendU32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void AppendU64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void PokeU64(std::vector<std::uint8_t>* out, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*out)[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void PokeU32(std::vector<std::uint8_t>* out, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*out)[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void PadTo8(std::vector<std::uint8_t>* out) {
  while (out->size() % 8 != 0) out->push_back(0);
}

// Bounds-checked cursor over the mapped bytes: every read is validated, so
// truncated or foreign files fail with an error, never with UB.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::size_t offset() const { return offset_; }
  bool ok() const { return ok_; }

  std::uint32_t ReadU32() { return static_cast<std::uint32_t>(ReadLE(4)); }
  std::uint64_t ReadU64() { return ReadLE(8); }

  std::span<const std::uint8_t> ReadBytes(std::size_t n) {
    if (!Ensure(n)) return {};
    std::span<const std::uint8_t> out(data_ + offset_, n);
    offset_ += n;
    return out;
  }

  void SeekTo(std::size_t offset) {
    if (offset > size_) {
      ok_ = false;
      return;
    }
    offset_ = offset;
  }

 private:
  bool Ensure(std::size_t n) {
    if (!ok_ || size_ - offset_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::uint64_t ReadLE(std::size_t n) {
    if (!Ensure(n)) return 0;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(data_[offset_ + i]) << (8 * i);
    }
    offset_ += n;
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
  bool ok_ = true;
};

std::uint64_t ChecksumBytes(std::span<const std::uint8_t> bytes) {
  return HashRange(bytes.begin(), bytes.end(), /*seed=*/0x53515243u);
}

std::uint64_t ChecksumValues(std::span<const Value> values) {
  return HashRange(values.begin(), values.end(), /*seed=*/0x53515243u);
}

// Value load that tolerates any alignment (owned mode copies; checksum
// verification streams) without aliasing games.
Value LoadValueAt(const std::uint8_t* p) {
  Value v;
  std::memcpy(&v, p, sizeof(Value));
  return v;
}

std::uint64_t ChecksumRawColumn(const std::uint8_t* p, std::uint64_t rows) {
  std::uint64_t h = 0x53515243u;
  for (std::uint64_t i = 0; i < rows; ++i) {
    h = HashCombine(h, static_cast<std::size_t>(LoadValueAt(p + i * 8)));
  }
  return h;
}

// --- atomic install --------------------------------------------------------

std::string DirOf(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

bool FsyncPath(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

// Streaming write-to-temp + fsync + rename: a crash (or an abandoned,
// uncommitted writer) leaves either the old file or nothing new, never a
// torn mix. The O_EXCL temp open (ursadb's ExclusiveFile) stops two
// writers *in one process* from interleaving on one temp file; temp names
// are pid-suffixed, so cross-process mutual exclusion is the caller's job
// (the catalog holds a per-database flock during ingest). Streaming keeps
// the snapshot writer's peak memory at the staging columns alone — the
// file is never fully buffered.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(const std::string& path)
      : path_(path), tmp_(path + ".tmp." + std::to_string(::getpid())) {
    if (SHARPCQ_FAILPOINT("storage.tmp_open") != FailpointAction::kNone) {
      errno = EIO;  // fd_ stays -1: callers report a failed open
      return;
    }
    fd_ = ::open(tmp_.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  }

  ~AtomicFileWriter() {
    if (fd_ >= 0) {
      ::close(fd_);
      ::unlink(tmp_.c_str());
    }
  }

  bool ok() const { return fd_ >= 0; }

  bool Append(std::span<const std::uint8_t> bytes, Status* status) {
    const FailpointAction injected = SHARPCQ_FAILPOINT("storage.write");
    if (injected == FailpointAction::kShortWrite) {
      // Persist a prefix, then fail — the torn shape a power cut leaves in
      // the temp file. The commit never runs, so the torn bytes stay on the
      // uncommitted side of the rename barrier.
      WriteAll(bytes.subspan(0, bytes.size() / 2), nullptr);
      SetStatus(status, StatusCode::kIoError,
                "write " + tmp_ + ": injected short write");
      return false;
    }
    if (injected != FailpointAction::kNone) {
      SetStatus(status, StatusCode::kIoError,
                "write " + tmp_ + ": injected fault");
      return false;
    }
    return WriteAll(bytes, status);
  }

  bool WriteAll(std::span<const std::uint8_t> bytes, Status* status) {
    std::size_t written = 0;
    while (written < bytes.size()) {
      ssize_t n = ::write(fd_, bytes.data() + written,
                          bytes.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        SetStatus(status, StatusCode::kIoError, "write " + tmp_ + ": " + std::strerror(errno));
        return false;
      }
      written += static_cast<std::size_t>(n);
    }
    return true;
  }

  // fsync + rename over the destination; the rename is the commit point.
  bool Commit(Status* status) {
    if (SHARPCQ_FAILPOINT("storage.fsync") != FailpointAction::kNone) {
      SetStatus(status, StatusCode::kIoError,
                "fsync " + tmp_ + ": injected fault");
      return false;
    }
    if (::fsync(fd_) != 0) {
      SetStatus(status, StatusCode::kIoError, "fsync " + tmp_ + ": " + std::strerror(errno));
      return false;
    }
    ::close(fd_);
    fd_ = -1;  // past this point the dtor must not close or unlink
    if (SHARPCQ_FAILPOINT("storage.rename") != FailpointAction::kNone) {
      SetStatus(status, StatusCode::kIoError,
                "rename " + tmp_ + " -> " + path_ + ": injected fault");
      ::unlink(tmp_.c_str());
      return false;
    }
    if (::rename(tmp_.c_str(), path_.c_str()) != 0) {
      SetStatus(status, StatusCode::kIoError, "rename " + tmp_ + " -> " + path_ + ": " +
                          std::strerror(errno));
      ::unlink(tmp_.c_str());
      return false;
    }
    FsyncPath(DirOf(path_));  // persist the rename itself
    return true;
  }

 private:
  std::string path_;
  std::string tmp_;
  int fd_ = -1;
};

}  // namespace

bool AtomicWriteFile(const std::string& path,
                     std::span<const std::uint8_t> bytes,
                     Status* status) {
  AtomicFileWriter writer(path);
  if (!writer.ok()) {
    SetStatus(status, StatusCode::kIoError, "cannot create temp file for " + path + ": " +
                        std::strerror(errno));
    return false;
  }
  return writer.Append(bytes, status) && writer.Commit(status);
}

// --- SnapshotWriter --------------------------------------------------------

void SnapshotWriter::DeclareRelation(const std::string& relation, int arity) {
  SHARPCQ_CHECK(arity >= 0);
  auto it = relations_.find(relation);
  if (it == relations_.end()) {
    Pending pending;
    pending.arity = arity;
    pending.cols.resize(static_cast<std::size_t>(arity));
    relations_.emplace(relation, std::move(pending));
    return;
  }
  SHARPCQ_CHECK_MSG(it->second.arity == arity, relation.c_str());
}

void SnapshotWriter::AddRow(const std::string& relation,
                            std::span<const Value> row) {
  DeclareRelation(relation, static_cast<int>(row.size()));
  Pending& pending = relations_[relation];
  for (std::size_t c = 0; c < row.size(); ++c) {
    pending.cols[c].push_back(row[c]);
  }
  ++pending.rows;
}

void SnapshotWriter::AddDatabase(const Database& db) {
  for (const std::string& name : db.SortedRelationNames()) {
    const Table& table = *db.table(name);
    DeclareRelation(name, table.arity());
    Pending& pending = relations_[name];
    for (int c = 0; c < table.arity(); ++c) {
      std::span<const Value> col = table.Column(c);
      pending.cols[static_cast<std::size_t>(c)].insert(
          pending.cols[static_cast<std::size_t>(c)].end(), col.begin(),
          col.end());
    }
    pending.rows += table.rows();
  }
}

void SnapshotWriter::set_format_version(std::uint32_t version) {
  SHARPCQ_CHECK(version == kSnapshotVersion || version == kSnapshotVersionV1);
  format_version_ = version;
}

std::optional<int> SnapshotWriter::RelationArity(
    const std::string& relation) const {
  auto it = relations_.find(relation);
  if (it == relations_.end()) return std::nullopt;
  return it->second.arity;
}

std::size_t SnapshotWriter::pending_rows() const {
  std::size_t total = 0;
  for (const auto& [name, pending] : relations_) total += pending.rows;
  return total;
}

std::optional<SnapshotWriteStats> SnapshotWriter::Finish(
    const std::string& path, const ValueDict* dict, Status* status) {
  SHARPCQ_CHECK_MSG(HostIsLittleEndian(),
                    "snapshot writing requires a little-endian host");
  // Canonicalize every relation: rows sorted lexicographically and
  // deduplicated. Snapshots of the same logical database are byte-stable
  // no matter the insertion order.
  for (auto& [name, pending] : relations_) {
    if (pending.arity == 0) {
      pending.rows = pending.rows > 0 ? 1 : 0;  // a set holds <= 1 empty row
      continue;
    }
    std::vector<std::uint32_t> order(pending.rows);
    std::iota(order.begin(), order.end(), 0);
    const auto& cols = pending.cols;
    auto row_less = [&cols](std::uint32_t a, std::uint32_t b) {
      for (const auto& col : cols) {
        if (col[a] != col[b]) return col[a] < col[b];
      }
      return false;
    };
    auto row_eq = [&cols](std::uint32_t a, std::uint32_t b) {
      for (const auto& col : cols) {
        if (col[a] != col[b]) return false;
      }
      return true;
    };
    std::sort(order.begin(), order.end(), row_less);
    order.erase(std::unique(order.begin(), order.end(), row_eq), order.end());
    std::vector<std::vector<Value>> canonical(cols.size());
    for (std::size_t c = 0; c < cols.size(); ++c) {
      canonical[c].reserve(order.size());
      for (std::uint32_t id : order) canonical[c].push_back(cols[c][id]);
    }
    pending.cols = std::move(canonical);
    pending.rows = order.size();
  }

  // Serialize: header placeholder, dict arena, toc, stats (v2), column
  // data. Offsets are poked into the header and toc once known.
  const bool with_stats = format_version_ == kSnapshotVersion;
  const std::size_t header_bytes =
      with_stats ? kSnapshotHeaderBytes : kSnapshotHeaderBytesV1;
  std::vector<std::uint8_t> out;
  out.resize(header_bytes, 0);

  const std::size_t dict_offset = out.size();
  const std::size_t dict_count = dict != nullptr ? dict->size() : 0;
  for (std::size_t v = 0; v < dict_count; ++v) {
    std::string name = dict->NameOf(static_cast<Value>(v));
    AppendU32(&out, static_cast<std::uint32_t>(name.size()));
    out.insert(out.end(), name.begin(), name.end());
  }
  const std::size_t dict_bytes = out.size() - dict_offset;
  const std::uint64_t dict_checksum =
      ChecksumBytes({out.data() + dict_offset, dict_bytes});
  PadTo8(&out);

  // Column segments start after the toc; the toc stores absolute offsets,
  // so lay out the data region first.
  const std::size_t toc_offset = out.size();
  std::size_t toc_bytes = 0;
  for (const auto& [name, pending] : relations_) {
    toc_bytes += 4 + 4 + 8 +
                 static_cast<std::size_t>(pending.arity) * 16 + name.size();
  }
  const std::size_t stats_offset = Align8(toc_offset + toc_bytes);
  std::size_t stats_bytes = 0;
  if (with_stats) {
    for (const auto& [name, pending] : relations_) {
      stats_bytes += static_cast<std::size_t>(pending.arity) *
                     kSnapshotStatsBytesPerColumn;
    }
  }
  // kSnapshotStatsBytesPerColumn is a multiple of 8, so the data region
  // stays aligned; for v1 this degenerates to the historical
  // Align8(toc end) and the layout is byte-identical to old writers.
  const std::size_t data_offset = stats_offset + stats_bytes;
  std::size_t cursor = data_offset;
  std::map<std::string, std::vector<std::uint64_t>> col_offsets;
  for (const auto& [name, pending] : relations_) {
    auto& offsets = col_offsets[name];
    for (int c = 0; c < pending.arity; ++c) {
      offsets.push_back(cursor);
      cursor += pending.rows * 8;
    }
  }
  const std::uint64_t file_bytes = cursor;

  for (const auto& [name, pending] : relations_) {
    AppendU32(&out, static_cast<std::uint32_t>(name.size()));
    AppendU32(&out, static_cast<std::uint32_t>(pending.arity));
    AppendU64(&out, pending.rows);
    const auto& offsets = col_offsets[name];
    for (int c = 0; c < pending.arity; ++c) {
      AppendU64(&out, offsets[static_cast<std::size_t>(c)]);
      AppendU64(&out, ChecksumValues(pending.cols[static_cast<std::size_t>(c)]));
    }
    out.insert(out.end(), name.begin(), name.end());
  }
  SHARPCQ_CHECK(out.size() - toc_offset == toc_bytes);
  const std::uint64_t toc_checksum =
      ChecksumBytes({out.data() + toc_offset, toc_bytes});
  PadTo8(&out);
  SHARPCQ_CHECK(out.size() == stats_offset);

  // Stats section: per relation (toc order), per column, the TableStats
  // fields. The value-count map iterates in hash order, but every emitted
  // quantity (distinct count, max group, histogram tallies) is an
  // order-independent aggregate, so the section — like the rest of the
  // file — is a pure function of the logical database.
  std::uint64_t stats_checksum = 0;
  if (with_stats) {
    std::unordered_map<Value, std::uint64_t> counts;
    for (const auto& [name, pending] : relations_) {
      for (int c = 0; c < pending.arity; ++c) {
        counts.clear();
        for (Value v : pending.cols[static_cast<std::size_t>(c)]) {
          ++counts[v];
        }
        std::uint64_t max_group = 0;
        std::array<std::uint32_t, kDegreeHistogramBuckets> histogram{};
        for (const auto& [value, group] : counts) {
          max_group = std::max(max_group, group);
          ++histogram[DegreeBucket(group)];
        }
        AppendU64(&out, counts.size());
        AppendU64(&out, max_group);
        for (std::uint32_t bucket : histogram) AppendU32(&out, bucket);
      }
    }
    SHARPCQ_CHECK(out.size() - stats_offset == stats_bytes);
    stats_checksum = ChecksumBytes({out.data() + stats_offset, stats_bytes});
  }
  SHARPCQ_CHECK(out.size() == data_offset);

  SnapshotWriteStats stats;
  stats.relations = relations_.size();
  for (const auto& [name, pending] : relations_) stats.tuples += pending.rows;
  stats.bytes = file_bytes;

  PokeU64(&out, 0x00, kSnapshotMagic);
  PokeU32(&out, 0x08, format_version_);
  PokeU32(&out, 0x0c, kSnapshotFlagLittleEndian);
  PokeU64(&out, 0x10, relations_.size());
  PokeU64(&out, 0x18, dict_count);
  PokeU64(&out, 0x20, dict_offset);
  PokeU64(&out, 0x28, dict_bytes);
  PokeU64(&out, 0x30, dict_checksum);
  PokeU64(&out, 0x38, toc_offset);
  PokeU64(&out, 0x40, toc_bytes);
  PokeU64(&out, 0x48, toc_checksum);
  PokeU64(&out, 0x50, data_offset);
  PokeU64(&out, 0x58, file_bytes);
  if (with_stats) {
    PokeU64(&out, 0x60, stats_offset);
    PokeU64(&out, 0x68, stats_bytes);
    PokeU64(&out, 0x70, stats_checksum);
    PokeU64(&out, kHeaderChecksumOffsetV2,
            ChecksumBytes({out.data(), kHeaderChecksumOffsetV2}));
  } else {
    PokeU64(&out, kHeaderChecksumOffsetV1,
            ChecksumBytes({out.data(), kHeaderChecksumOffsetV1}));
  }

  // Stream: front matter first, then each column, releasing its staging
  // buffer as it lands — peak memory stays at the staging columns alone,
  // never the whole serialized file.
  AtomicFileWriter writer(path);
  if (!writer.ok()) {
    SetStatus(status, StatusCode::kIoError, "cannot create temp file for " + path + ": " +
                        std::strerror(errno));
    return std::nullopt;
  }
  if (!writer.Append(out, status)) return std::nullopt;
  for (auto& [name, pending] : relations_) {
    for (auto& col : pending.cols) {
      if (!writer.Append({reinterpret_cast<const std::uint8_t*>(col.data()),
                          col.size() * sizeof(Value)},
                         status)) {
        return std::nullopt;
      }
      std::vector<Value>().swap(col);
    }
  }
  if (!writer.Commit(status)) return std::nullopt;
  relations_.clear();
  return stats;
}

// --- reading ---------------------------------------------------------------

std::uint64_t SnapshotInfo::TotalTuples() const {
  std::uint64_t total = 0;
  for (const SnapshotRelationInfo& rel : relations) total += rel.rows;
  return total;
}

namespace {

// Validates everything cheap (header + dict + toc, their checksums, all
// section bounds) against the mapped bytes. Column data is untouched.
std::optional<SnapshotInfo> ParseFrontMatter(const std::uint8_t* data,
                                             std::size_t size,
                                             Status* status) {
  if (size < kSnapshotHeaderBytesV1) {
    SetStatus(status, StatusCode::kCorruptData, "not a sharpcq snapshot (file shorter than the header)");
    return std::nullopt;
  }
  ByteReader header(data, size);
  const std::uint64_t magic = header.ReadU64();
  if (magic != kSnapshotMagic) {
    SetStatus(status, StatusCode::kCorruptData, "not a sharpcq snapshot (bad magic)");
    return std::nullopt;
  }
  SnapshotInfo info;
  info.version = header.ReadU32();
  info.flags = header.ReadU32();
  if (info.version != kSnapshotVersion &&
      info.version != kSnapshotVersionV1) {
    SetStatus(status, StatusCode::kCorruptData, "unsupported snapshot version " +
                        std::to_string(info.version));
    return std::nullopt;
  }
  const bool with_stats = info.version >= 2;
  const std::size_t header_bytes =
      with_stats ? kSnapshotHeaderBytes : kSnapshotHeaderBytesV1;
  if (size < header_bytes) {
    SetStatus(status, StatusCode::kCorruptData, "not a sharpcq snapshot (file shorter than the header)");
    return std::nullopt;
  }
  if ((info.flags & kSnapshotFlagLittleEndian) == 0 ||
      !HostIsLittleEndian()) {
    SetStatus(status, StatusCode::kCorruptData, "snapshot byte order does not match this host");
    return std::nullopt;
  }
  const std::uint64_t relation_count = header.ReadU64();
  info.dict_count = header.ReadU64();
  const std::uint64_t dict_offset = header.ReadU64();
  const std::uint64_t dict_bytes = header.ReadU64();
  const std::uint64_t dict_checksum = header.ReadU64();
  const std::uint64_t toc_offset = header.ReadU64();
  const std::uint64_t toc_bytes = header.ReadU64();
  const std::uint64_t toc_checksum = header.ReadU64();
  const std::uint64_t data_offset = header.ReadU64();
  info.file_bytes = header.ReadU64();
  std::uint64_t stats_offset = 0;
  std::uint64_t stats_bytes = 0;
  std::uint64_t stats_checksum = 0;
  if (with_stats) {
    stats_offset = header.ReadU64();
    stats_bytes = header.ReadU64();
    stats_checksum = header.ReadU64();
  }
  const std::uint64_t header_checksum = header.ReadU64();
  const std::size_t checksum_offset =
      with_stats ? kHeaderChecksumOffsetV2 : kHeaderChecksumOffsetV1;
  SHARPCQ_CHECK(header.ok() && header.offset() == header_bytes);
  if (ChecksumBytes({data, checksum_offset}) != header_checksum) {
    SetStatus(status, StatusCode::kCorruptData, "header checksum mismatch (corrupt snapshot)");
    return std::nullopt;
  }
  if (info.file_bytes != size) {
    SetStatus(status, StatusCode::kCorruptData, "snapshot truncated: header records " +
                        std::to_string(info.file_bytes) + " bytes, file has " +
                        std::to_string(size));
    return std::nullopt;
  }
  auto section_ok = [size](std::uint64_t offset, std::uint64_t bytes) {
    return offset <= size && bytes <= size - offset;
  };
  if (!section_ok(dict_offset, dict_bytes) ||
      !section_ok(toc_offset, toc_bytes) || data_offset > size ||
      (with_stats && !section_ok(stats_offset, stats_bytes))) {
    SetStatus(status, StatusCode::kCorruptData, "section bounds exceed the file (corrupt snapshot)");
    return std::nullopt;
  }
  if (ChecksumBytes({data + dict_offset, dict_bytes}) != dict_checksum) {
    SetStatus(status, StatusCode::kCorruptData, "dictionary checksum mismatch (corrupt snapshot)");
    return std::nullopt;
  }
  if (ChecksumBytes({data + toc_offset, toc_bytes}) != toc_checksum) {
    SetStatus(status, StatusCode::kCorruptData, "toc checksum mismatch (corrupt snapshot)");
    return std::nullopt;
  }
  if (with_stats &&
      ChecksumBytes({data + stats_offset, stats_bytes}) != stats_checksum) {
    SetStatus(status, StatusCode::kCorruptData, "stats section checksum mismatch (corrupt snapshot)");
    return std::nullopt;
  }

  // Each toc entry occupies at least 16 bytes, so a header-supplied count
  // beyond toc_bytes/16 cannot be satisfied; reject it before reserve()
  // can throw on a hostile value (the checksums are not cryptographic).
  if (relation_count > toc_bytes / 16) {
    SetStatus(status, StatusCode::kCorruptData, "relation count exceeds toc size (corrupt snapshot)");
    return std::nullopt;
  }
  ByteReader toc(data, static_cast<std::size_t>(toc_offset + toc_bytes));
  toc.SeekTo(toc_offset);
  info.relations.reserve(relation_count);
  for (std::uint64_t r = 0; r < relation_count; ++r) {
    SnapshotRelationInfo rel;
    const std::uint32_t name_len = toc.ReadU32();
    rel.arity = static_cast<int>(toc.ReadU32());
    rel.rows = toc.ReadU64();
    if (!toc.ok() || rel.arity < 0 || rel.arity > 1 << 16 ||
        rel.rows > size / 8) {
      SetStatus(status, StatusCode::kCorruptData, "toc entry out of range (corrupt snapshot)");
      return std::nullopt;
    }
    rel.columns.resize(static_cast<std::size_t>(rel.arity));
    for (SnapshotColumnInfo& col : rel.columns) {
      col.offset = toc.ReadU64();
      col.checksum = toc.ReadU64();
      if (!toc.ok() || col.offset % 8 != 0 ||
          !section_ok(col.offset, rel.rows * 8) || col.offset < data_offset) {
        SetStatus(status, StatusCode::kCorruptData, "column segment out of bounds (corrupt snapshot)");
        return std::nullopt;
      }
    }
    std::span<const std::uint8_t> name = toc.ReadBytes(name_len);
    if (!toc.ok()) {
      SetStatus(status, StatusCode::kCorruptData, "toc truncated (corrupt snapshot)");
      return std::nullopt;
    }
    rel.name.assign(name.begin(), name.end());
    info.relations.push_back(std::move(rel));
  }
  if (toc.offset() != toc_offset + toc_bytes) {
    SetStatus(status, StatusCode::kCorruptData, "toc size mismatch (corrupt snapshot)");
    return std::nullopt;
  }

  // Stats section (v2): exactly one fixed-size record per column, in toc
  // order. The extent must match the toc-derived column count, and every
  // persisted quantity must be consistent with the relation's row count —
  // a stale or foreign section fails the load, it never mis-steers the
  // cost model silently.
  if (with_stats) {
    std::uint64_t expected_bytes = 0;
    for (const SnapshotRelationInfo& rel : info.relations) {
      expected_bytes += static_cast<std::uint64_t>(rel.arity) *
                        kSnapshotStatsBytesPerColumn;
    }
    if (stats_bytes != expected_bytes) {
      SetStatus(status, StatusCode::kCorruptData, "stats section size mismatch (corrupt snapshot)");
      return std::nullopt;
    }
    ByteReader stats(data,
                     static_cast<std::size_t>(stats_offset + stats_bytes));
    stats.SeekTo(stats_offset);
    for (SnapshotRelationInfo& rel : info.relations) {
      rel.stats.resize(static_cast<std::size_t>(rel.arity));
      for (ColumnStats& col : rel.stats) {
        col.distinct = stats.ReadU64();
        col.max_group = stats.ReadU64();
        for (std::uint32_t& bucket : col.histogram) bucket = stats.ReadU32();
        if (!stats.ok() || col.distinct > rel.rows ||
            col.max_group > rel.rows) {
          SetStatus(status, StatusCode::kCorruptData, "stats entry out of range (corrupt snapshot)");
          return std::nullopt;
        }
      }
    }
  }

  // Dictionary entries must cover exactly the recorded arena.
  ByteReader arena(data, static_cast<std::size_t>(dict_offset + dict_bytes));
  arena.SeekTo(dict_offset);
  for (std::uint64_t v = 0; v < info.dict_count; ++v) {
    std::uint32_t len = arena.ReadU32();
    arena.ReadBytes(len);
    if (!arena.ok()) {
      SetStatus(status, StatusCode::kCorruptData, "dictionary arena truncated (corrupt snapshot)");
      return std::nullopt;
    }
  }
  if (arena.offset() != dict_offset + dict_bytes) {
    SetStatus(status, StatusCode::kCorruptData, "dictionary size mismatch (corrupt snapshot)");
    return std::nullopt;
  }
  return info;
}

std::optional<ValueDict> ParseDict(const std::uint8_t* data,
                                   const SnapshotInfo& info,
                                   std::uint64_t dict_offset,
                                   std::uint64_t dict_bytes,
                                   Status* status) {
  ValueDict dict;
  // Bounded by the arena's own extent: this walk must not rely on having
  // mirrored ParseFrontMatter's validation exactly.
  ByteReader arena(data, static_cast<std::size_t>(dict_offset + dict_bytes));
  arena.SeekTo(dict_offset);
  for (std::uint64_t v = 0; v < info.dict_count; ++v) {
    std::uint32_t len = arena.ReadU32();
    std::span<const std::uint8_t> bytes = arena.ReadBytes(len);
    if (!arena.ok()) {
      SetStatus(status, StatusCode::kCorruptData, "dictionary arena truncated (corrupt snapshot)");
      return std::nullopt;
    }
    std::string_view name(reinterpret_cast<const char*>(bytes.data()),
                          bytes.size());
    Value assigned = dict.Intern(name);
    if (assigned != static_cast<Value>(v)) {
      // A duplicated string passes the arena checksum (the writer never
      // emits one, but foreign files exist); it must reject the load, not
      // kill a serving process.
      SetStatus(status, StatusCode::kCorruptData, "duplicate dictionary entry '" + std::string(name) +
                          "' (corrupt snapshot)");
      return std::nullopt;
    }
  }
  return dict;
}

// Hands a relation's persisted stats (v2 snapshots) to its freshly built
// table, so the first BuildDataProfile over a loaded generation computes
// nothing. First-install-wins semantics make this a no-op if someone
// already forced lazy computation.
void InstallPersistedStats(const SnapshotRelationInfo& rel,
                           const Table& table) {
  if (rel.stats.size() != static_cast<std::size_t>(rel.arity)) return;
  auto stats = std::make_shared<TableStats>();
  stats->rows = rel.rows;
  stats->columns = rel.stats;
  table.InstallStats(std::move(stats));
}

}  // namespace

std::optional<SnapshotInfo> ReadSnapshotInfo(const std::string& path,
                                             Status* status) {
  std::shared_ptr<const MemMap> map = MemMap::Open(path, status);
  if (map == nullptr) return std::nullopt;
  return ParseFrontMatter(map->data(), map->size(), status);
}

std::optional<LoadedSnapshot> LoadSnapshot(const std::string& path,
                                           SnapshotLoadMode mode,
                                           Status* status) {
  std::shared_ptr<const MemMap> map = MemMap::Open(path, status);
  if (map == nullptr) return std::nullopt;
  std::optional<SnapshotInfo> info =
      ParseFrontMatter(map->data(), map->size(), status);
  if (!info.has_value()) return std::nullopt;

  LoadedSnapshot loaded;
  loaded.mode = mode;
  // The dict extent is re-read from the (already validated) header.
  ByteReader header(map->data(), map->size());
  header.SeekTo(0x20);
  const std::uint64_t dict_offset = header.ReadU64();
  const std::uint64_t dict_bytes = header.ReadU64();
  std::optional<ValueDict> dict =
      ParseDict(map->data(), *info, dict_offset, dict_bytes, status);
  if (!dict.has_value()) return std::nullopt;
  loaded.dict = std::move(*dict);

  for (const SnapshotRelationInfo& rel : info->relations) {
    if (mode == SnapshotLoadMode::kMapped) {
      // Zero copy: column segments become the table's storage and the
      // shared mapping is the arena that keeps the pages alive.
      std::vector<std::span<const Value>> cols;
      cols.reserve(rel.columns.size());
      for (const SnapshotColumnInfo& col : rel.columns) {
        cols.emplace_back(
            reinterpret_cast<const Value*>(map->data() + col.offset),
            rel.rows);
      }
      std::shared_ptr<const Table> table = Table::FromExternal(
          std::move(cols), static_cast<std::size_t>(rel.rows), map);
      InstallPersistedStats(rel, *table);
      loaded.db.SetTable(rel.name, std::move(table));
      continue;
    }
    // Owned: verify each column checksum and copy into a TableBuilder. The
    // writer canonicalized rows (sorted + distinct), so Build can skip the
    // dedup pass.
    TableBuilder builder(rel.arity);
    builder.ReserveRows(static_cast<std::size_t>(rel.rows));
    for (const SnapshotColumnInfo& col : rel.columns) {
      if (ChecksumRawColumn(map->data() + col.offset, rel.rows) !=
          col.checksum) {
        SetStatus(status, StatusCode::kCorruptData, "column checksum mismatch in relation '" + rel.name +
                            "' (corrupt snapshot)");
        return std::nullopt;
      }
    }
    std::vector<Value> row(static_cast<std::size_t>(rel.arity));
    for (std::uint64_t i = 0; i < rel.rows; ++i) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        row[c] = LoadValueAt(map->data() + rel.columns[c].offset + i * 8);
      }
      builder.AddRow(row);
    }
    std::shared_ptr<const Table> table =
        std::move(builder).Build(/*known_distinct=*/true);
    InstallPersistedStats(rel, *table);
    loaded.db.SetTable(rel.name, std::move(table));
  }
  loaded.info = std::move(*info);
  return loaded;
}

bool VerifySnapshot(const std::string& path, Status* status) {
  std::shared_ptr<const MemMap> map = MemMap::Open(path, status);
  if (map == nullptr) return false;
  std::optional<SnapshotInfo> info =
      ParseFrontMatter(map->data(), map->size(), status);
  if (!info.has_value()) return false;
  for (const SnapshotRelationInfo& rel : info->relations) {
    for (std::size_t c = 0; c < rel.columns.size(); ++c) {
      if (ChecksumRawColumn(map->data() + rel.columns[c].offset, rel.rows) !=
          rel.columns[c].checksum) {
        SetStatus(status, StatusCode::kCorruptData, "column " + std::to_string(c) + " of relation '" +
                            rel.name + "' fails its checksum");
        return false;
      }
    }
  }
  return true;
}

std::optional<SnapshotWriteStats> WriteSnapshot(const Database& db,
                                                const ValueDict* dict,
                                                const std::string& path,
                                                Status* status) {
  SnapshotWriter writer;
  writer.AddDatabase(db);
  return writer.Finish(path, dict, status);
}

namespace {

// The sink for CSV -> writer ingest. Two input files feeding one relation
// with different arities is bad data, not a programming error: the sink
// detects it (ParseCsvToSink guarantees a uniform arity within one file,
// so the first row decides) and the wrapper turns it into kParseError
// instead of letting DeclareRelation's invariant check abort.
struct WriterSink {
  SnapshotWriter* writer;
  const std::string& relation;
  std::optional<int> conflicting_arity;

  void operator()(std::span<const Value> row) {
    if (conflicting_arity.has_value()) return;
    std::optional<int> declared = writer->RelationArity(relation);
    if (declared.has_value() && *declared != static_cast<int>(row.size())) {
      conflicting_arity = static_cast<int>(row.size());
      return;
    }
    writer->AddRow(relation, row);
  }

  CsvResult Resolve(CsvResult result) const {
    if (result.ok() && conflicting_arity.has_value()) {
      result.status = CsvStatus::kParseError;
      result.tuples = 0;
      result.message = "relation '" + relation + "' already has arity " +
                       std::to_string(*writer->RelationArity(relation)) +
                       ", input has arity " +
                       std::to_string(*conflicting_arity);
    }
    return result;
  }
};

}  // namespace

CsvResult LoadRelationCsvIntoWriter(std::istream& in,
                                    const std::string& relation,
                                    SnapshotWriter* writer, ValueDict* dict) {
  WriterSink sink{writer, relation, std::nullopt};
  return sink.Resolve(
      ParseCsvToSink(in, [&sink](std::span<const Value> row) { sink(row); },
                     dict));
}

CsvResult LoadRelationCsvFileIntoWriter(const std::string& path,
                                        const std::string& relation,
                                        SnapshotWriter* writer,
                                        ValueDict* dict) {
  WriterSink sink{writer, relation, std::nullopt};
  return sink.Resolve(
      ParseCsvFileToSink(path,
                         [&sink](std::span<const Value> row) { sink(row); },
                         dict));
}

}  // namespace sharpcq
