#ifndef FDM_UTIL_BINARY_IO_H_
#define FDM_UTIL_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace fdm {

/// FNV-1a 64-bit hash — the checksum behind snapshot files and WAL records.
/// Not cryptographic; it detects torn writes and bit rot, which is all the
/// durability layer needs, and it is dependency-free. Passing the hash of
/// a prefix as `seed` continues it over the next bytes.
inline constexpr uint64_t kFnv1a64Basis = 0xcbf29ce484222325ull;
uint64_t Fnv1a64(const void* data, size_t len, uint64_t seed = kFnv1a64Basis);

/// Reads a whole file into memory (binary). Shared by the snapshot reader
/// and the WAL segment scanner.
Result<std::string> ReadFileToString(const std::string& path);

/// Writer for the versioned, checksummed snapshot format.
///
/// A snapshot is framed as
///
///   magic "FDMSNAP1" (8 bytes) | format version u32 | payload size u64 |
///   payload | FNV-1a 64 of payload
///
/// with every scalar little-endian. A writer has one of two targets:
///
///  * In memory (default constructor): the payload accumulates in a
///    string and `Serialize` frames it — for shipped bytes and tests.
///  * A file (`ToFile`): the payload streams into `<path>.tmp` in fixed
///    `kChunkBytes` chunks, with a running checksum, so a snapshot never
///    holds a payload-sized buffer; a span larger than a chunk is written
///    straight through. `Commit` writes the payload size into the header
///    (`pwrite`), appends the checksum, fsyncs, renames over `path` and
///    fsyncs the directory, so a crash mid-snapshot never clobbers the
///    previous good snapshot. A writer destroyed before a successful
///    `Commit` (including after a failed one) removes its `.tmp` file.
///
/// Both targets produce identical bytes for identical writes. The `Write*`
/// calls never fail on their own: a file write error latches and
/// `Commit` reports it.
class SnapshotWriter {
 public:
  static constexpr char kMagic[8] = {'F', 'D', 'M', 'S', 'N', 'A', 'P', '1'};
  /// Bumped whenever any sink's snapshot payload layout changes (v2 added
  /// the per-sink state_version field), so an old-format file is rejected
  /// cleanly at the header instead of being silently misparsed field by
  /// field.
  static constexpr uint32_t kFormatVersion = 2;
  /// Payload bytes a file writer buffers between writes.
  static constexpr size_t kChunkBytes = 64u << 10;

  SnapshotWriter() = default;
  /// Opens `<path>.tmp` for a streamed snapshot of `path`. Fails (creating
  /// nothing) when the temp file cannot be created.
  static Result<SnapshotWriter> ToFile(std::string path);

  SnapshotWriter(SnapshotWriter&& other) noexcept;
  SnapshotWriter& operator=(SnapshotWriter&& other) noexcept;
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;
  ~SnapshotWriter();

  void WriteU8(uint8_t v) { Raw(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteU32(uint32_t v) { Raw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { Raw(&v, sizeof(v)); }
  void WriteI32(int32_t v) { Raw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { Raw(&v, sizeof(v)); }
  void WriteDouble(double v) { Raw(&v, sizeof(v)); }

  /// Length-prefixed string (u64 length + bytes).
  void WriteString(std::string_view s) {
    WriteU64(s.size());
    Raw(s.data(), s.size());
  }

  /// Length-prefixed spans, element-wise little-endian.
  void WriteDoubleSpan(std::span<const double> v) {
    WriteU64(v.size());
    Raw(v.data(), v.size() * sizeof(double));
  }
  void WriteI64Span(std::span<const int64_t> v) {
    WriteU64(v.size());
    Raw(v.data(), v.size() * sizeof(int64_t));
  }
  void WriteI32Span(std::span<const int32_t> v) {
    WriteU64(v.size());
    Raw(v.data(), v.size() * sizeof(int32_t));
  }

  /// Unframed payload size so far.
  size_t PayloadBytes() const { return flushed_ + buffer_.size(); }

  /// The complete framed snapshot (header + payload + checksum). In-memory
  /// writers only.
  std::string Serialize() const;

  /// Finishes a file writer: the file at `path` then holds exactly the
  /// bytes `Serialize` would have returned. File writers only.
  Status Commit();

 private:
  void Raw(const void* data, size_t len) {
    if (len == 0) return;  // empty spans legitimately pass data() == null
    if (fd_ < 0 || buffer_.size() + len <= kChunkBytes) {
      buffer_.append(static_cast<const char*>(data), len);
      return;
    }
    Spill(static_cast<const char*>(data), len);
  }
  /// File target, chunk full: writes the chunk topped up from `data`, then
  /// the rest of `data` straight through if it still fills a chunk.
  void Spill(const char* data, size_t len);
  /// Writes `len` payload bytes to the temp file and folds them into the
  /// checksum; latches the first error.
  void WritePayload(const char* data, size_t len);
  /// Closes and removes the temp file of an unfinished file writer.
  void Abandon();

  std::string buffer_;  // whole payload in memory; the open chunk otherwise
  std::string path_;    // file target; empty in memory
  int fd_ = -1;
  uint64_t flushed_ = 0;  // payload bytes already in the temp file
  uint64_t checksum_ = kFnv1a64Basis;  // FNV-1a of those bytes
  Status error_;
};

/// Bounds-checked reader over a framed snapshot with a sticky error: the
/// first malformed read latches a non-OK `status()` and every later read
/// returns a zero value, so deserialization code reads linearly and checks
/// once (plus wherever a value gates a loop or allocation).
class SnapshotReader {
 public:
  /// Verifies magic, version, payload size, and checksum.
  static Result<SnapshotReader> FromBytes(std::string framed);
  static Result<SnapshotReader> FromFile(const std::string& path);

  uint8_t ReadU8() { return ReadScalar<uint8_t>(); }
  bool ReadBool() { return ReadU8() != 0; }
  uint32_t ReadU32() { return ReadScalar<uint32_t>(); }
  uint64_t ReadU64() { return ReadScalar<uint64_t>(); }
  int32_t ReadI32() { return ReadScalar<int32_t>(); }
  int64_t ReadI64() { return ReadScalar<int64_t>(); }
  double ReadDouble() { return ReadScalar<double>(); }

  std::string ReadString();
  std::vector<double> ReadDoubleVec();
  std::vector<int64_t> ReadI64Vec();
  std::vector<int32_t> ReadI32Vec();

  /// Reads the string at the cursor without consuming it — the snapshot
  /// dispatcher peeks the algorithm type tag, then hands the reader to the
  /// matching `Restore`, which consumes (and re-verifies) the tag itself.
  std::string PeekString();

  /// OK iff every read so far was in-bounds.
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Marks the reader failed (used by deserializers that spot a semantic
  /// inconsistency, e.g. a dimension mismatch).
  void Fail(std::string message) {
    if (status_.ok()) {
      status_ = Status::IoError("snapshot corrupt: " + std::move(message));
    }
  }

  /// Bytes of payload not yet consumed.
  size_t Remaining() const { return payload_.size() - offset_; }

 private:
  explicit SnapshotReader(std::string payload)
      : payload_(std::move(payload)) {}

  template <typename T>
  T ReadScalar() {
    T v{};
    if (!status_.ok()) return v;
    if (offset_ + sizeof(T) > payload_.size()) {
      Fail("read past end of payload");
      return v;
    }
    std::memcpy(&v, payload_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return v;
  }

  template <typename T>
  std::vector<T> ReadVec();

  std::string payload_;
  size_t offset_ = 0;
  Status status_;
};

}  // namespace fdm

#endif  // FDM_UTIL_BINARY_IO_H_
