#include "util/binary_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/check.h"

namespace fdm {

uint64_t Fnv1a64(const void* data, size_t len, uint64_t seed) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = seed;
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace {

constexpr size_t kSizeOffset = sizeof(SnapshotWriter::kMagic) + sizeof(uint32_t);
constexpr size_t kHeaderBytes = kSizeOffset + sizeof(uint64_t);

std::string FrameHeader(uint64_t payload_bytes) {
  std::string header(SnapshotWriter::kMagic, sizeof(SnapshotWriter::kMagic));
  const uint32_t version = SnapshotWriter::kFormatVersion;
  header.append(reinterpret_cast<const char*>(&version), sizeof(version));
  header.append(reinterpret_cast<const char*>(&payload_bytes),
                sizeof(payload_bytes));
  return header;
}

Status WriteAll(int fd, const char* data, size_t len, const std::string& path) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write failed: " + path + ": " +
                             std::strerror(errno));
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

std::string SnapshotWriter::Serialize() const {
  FDM_CHECK_MSG(fd_ < 0 && path_.empty(), "Serialize() on a file writer");
  std::string framed = FrameHeader(buffer_.size());
  framed.reserve(kHeaderBytes + buffer_.size() + sizeof(uint64_t));
  framed.append(buffer_);
  const uint64_t checksum = Fnv1a64(buffer_.data(), buffer_.size());
  framed.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return framed;
}

Result<SnapshotWriter> SnapshotWriter::ToFile(std::string path) {
  SnapshotWriter writer;
  const std::string tmp = path + ".tmp";
  writer.fd_ = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (writer.fd_ < 0) {
    return Status::IoError("cannot open for write: " + tmp + ": " +
                           std::strerror(errno));
  }
  writer.path_ = std::move(path);
  writer.buffer_.reserve(kChunkBytes);
  // The payload size is not known yet; Commit overwrites this placeholder.
  const std::string header = FrameHeader(0);
  if (Status s = WriteAll(writer.fd_, header.data(), header.size(), tmp);
      !s.ok()) {
    return s;  // the writer's destructor removes the temp file
  }
  return writer;
}

SnapshotWriter::SnapshotWriter(SnapshotWriter&& other) noexcept
    : buffer_(std::move(other.buffer_)),
      path_(std::move(other.path_)),
      fd_(other.fd_),
      flushed_(other.flushed_),
      checksum_(other.checksum_),
      error_(std::move(other.error_)) {
  other.fd_ = -1;
  other.path_.clear();
}

SnapshotWriter& SnapshotWriter::operator=(SnapshotWriter&& other) noexcept {
  if (this != &other) {
    Abandon();
    buffer_ = std::move(other.buffer_);
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    flushed_ = other.flushed_;
    checksum_ = other.checksum_;
    error_ = std::move(other.error_);
    other.fd_ = -1;
    other.path_.clear();
  }
  return *this;
}

SnapshotWriter::~SnapshotWriter() { Abandon(); }

void SnapshotWriter::Abandon() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
  ::unlink((path_ + ".tmp").c_str());
}

void SnapshotWriter::WritePayload(const char* data, size_t len) {
  if (!error_.ok()) return;
  error_ = WriteAll(fd_, data, len, path_ + ".tmp");
  checksum_ = Fnv1a64(data, len, checksum_);
  flushed_ += len;
}

void SnapshotWriter::Spill(const char* data, size_t len) {
  const size_t top_up = kChunkBytes - buffer_.size();
  buffer_.append(data, top_up);
  WritePayload(buffer_.data(), buffer_.size());
  buffer_.clear();
  data += top_up;
  len -= top_up;
  if (len >= kChunkBytes) {
    WritePayload(data, len);
  } else {
    buffer_.append(data, len);
  }
}

Status SnapshotWriter::Commit() {
  FDM_CHECK_MSG(fd_ >= 0, "Commit() on an in-memory or finished writer");
  const std::string tmp = path_ + ".tmp";
  WritePayload(buffer_.data(), buffer_.size());
  buffer_.clear();
  if (!error_.ok()) {
    Abandon();
    return error_;
  }
  const uint64_t size = flushed_;
  if (::pwrite(fd_, &size, sizeof(size), kSizeOffset) !=
      static_cast<ssize_t>(sizeof(size))) {
    const Status error =
        Status::IoError("pwrite failed: " + tmp + ": " + std::strerror(errno));
    Abandon();
    return error;
  }
  if (Status s = WriteAll(fd_, reinterpret_cast<const char*>(&checksum_),
                          sizeof(checksum_), tmp);
      !s.ok()) {
    Abandon();
    return s;
  }
  if (::fsync(fd_) != 0) {
    const Status error =
        Status::IoError("fsync failed: " + tmp + ": " + std::strerror(errno));
    Abandon();
    return error;
  }
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) {
    const Status error =
        Status::IoError("close failed: " + tmp + ": " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return error;
  }
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    const Status error = Status::IoError("rename failed: " + tmp + " -> " +
                                         path_ + ": " + std::strerror(errno));
    ::unlink(tmp.c_str());  // don't let retries accumulate stale temps
    return error;
  }
  // fsync the parent directory so the rename itself is durable — callers
  // (e.g. snapshot-then-prune-WAL) order destructive steps after this
  // return, which is only sound if the new directory entry survives a
  // power failure.
  const size_t slash = path_.find_last_of('/');
  const std::string parent = slash == std::string::npos
                                 ? std::string(".")
                                 : path_.substr(0, slash);
  const int dir_fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    return Status::IoError("cannot open dir for fsync: " + parent + ": " +
                           std::strerror(errno));
  }
  if (::fsync(dir_fd) != 0) {
    const Status error = Status::IoError("dir fsync failed: " + parent +
                                         ": " + std::strerror(errno));
    ::close(dir_fd);
    return error;
  }
  ::close(dir_fd);
  return Status::Ok();
}

Result<SnapshotReader> SnapshotReader::FromBytes(std::string framed) {
  if (framed.size() < kHeaderBytes + sizeof(uint64_t)) {
    return Status::IoError("snapshot truncated: " +
                           std::to_string(framed.size()) + " bytes");
  }
  if (std::memcmp(framed.data(), SnapshotWriter::kMagic,
                  sizeof(SnapshotWriter::kMagic)) != 0) {
    return Status::IoError("snapshot magic mismatch (not a snapshot file)");
  }
  uint32_t version = 0;
  std::memcpy(&version, framed.data() + sizeof(SnapshotWriter::kMagic),
              sizeof(version));
  if (version != SnapshotWriter::kFormatVersion) {
    return Status::Unsupported("snapshot format version " +
                               std::to_string(version) + " (reader supports " +
                               std::to_string(SnapshotWriter::kFormatVersion) +
                               ")");
  }
  uint64_t size = 0;
  std::memcpy(&size, framed.data() + kSizeOffset, sizeof(size));
  // Compare against the actual payload room (already known >= 0 from the
  // length check above) — `kHeaderBytes + size` could wrap for a corrupt
  // size.
  if (size != framed.size() - kHeaderBytes - sizeof(uint64_t)) {
    return Status::IoError("snapshot payload size mismatch: header says " +
                           std::to_string(size) + ", file has " +
                           std::to_string(framed.size() - kHeaderBytes -
                                          sizeof(uint64_t)));
  }
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, framed.data() + kHeaderBytes + size,
              sizeof(stored_checksum));
  const uint64_t computed = Fnv1a64(framed.data() + kHeaderBytes, size);
  if (stored_checksum != computed) {
    return Status::IoError("snapshot checksum mismatch");
  }
  // Strip the framing in place: a second payload-sized copy would double
  // the restore's transient memory.
  framed.resize(kHeaderBytes + size);
  framed.erase(0, kHeaderBytes);
  return SnapshotReader(std::move(framed));
}

Result<std::string> ReadFileToString(const std::string& path) {
  // Sized from fstat and read in place: a stream-buffer copy would hold
  // the file twice while a snapshot or WAL segment loads.
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open for read: " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat: " + path);
  }
  std::string bytes(static_cast<size_t>(st.st_size), '\0');
  size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      return Status::IoError("read failed: " + path);
    }
    if (n == 0) break;  // the file shrank under us: return what exists
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  bytes.resize(got);
  return bytes;
}

Result<SnapshotReader> SnapshotReader::FromFile(const std::string& path) {
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  auto reader = FromBytes(std::move(bytes.value()));
  if (!reader.ok()) {
    return Status(reader.status().code(),
                  reader.status().message() + " (" + path + ")");
  }
  return reader;
}

std::string SnapshotReader::ReadString() {
  const uint64_t len = ReadU64();
  if (!status_.ok()) return {};
  if (len > payload_.size() - offset_) {
    Fail("string length " + std::to_string(len) + " past end of payload");
    return {};
  }
  std::string s(payload_.data() + offset_, len);
  offset_ += len;
  return s;
}

std::string SnapshotReader::PeekString() {
  const size_t saved_offset = offset_;
  const Status saved_status = status_;
  std::string s = ReadString();
  offset_ = saved_offset;
  status_ = saved_status;
  return s;
}

template <typename T>
std::vector<T> SnapshotReader::ReadVec() {
  const uint64_t count = ReadU64();
  if (!status_.ok()) return {};
  if (count > (payload_.size() - offset_) / sizeof(T)) {
    Fail("vector of " + std::to_string(count) + " elements past end");
    return {};
  }
  std::vector<T> v(count);
  if (count != 0) {  // v.data() may be null for an empty vector
    std::memcpy(v.data(), payload_.data() + offset_, count * sizeof(T));
    offset_ += count * sizeof(T);
  }
  return v;
}

std::vector<double> SnapshotReader::ReadDoubleVec() {
  return ReadVec<double>();
}
std::vector<int64_t> SnapshotReader::ReadI64Vec() { return ReadVec<int64_t>(); }
std::vector<int32_t> SnapshotReader::ReadI32Vec() { return ReadVec<int32_t>(); }

}  // namespace fdm
