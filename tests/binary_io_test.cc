#include "util/binary_io.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace fdm {
namespace {

TEST(BinaryIoTest, ScalarAndStringRoundTrip) {
  SnapshotWriter writer;
  writer.WriteU8(7);
  writer.WriteBool(true);
  writer.WriteU32(0xdeadbeef);
  writer.WriteU64(1ull << 40);
  writer.WriteI32(-12345);
  writer.WriteI64(-(1ll << 50));
  writer.WriteDouble(0.1234567890123456789);
  writer.WriteString("hello snapshot");
  writer.WriteDoubleSpan(std::vector<double>{1.5, -2.5, 1e-300});

  auto reader = SnapshotReader::FromBytes(writer.Serialize());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->ReadU8(), 7);
  EXPECT_TRUE(reader->ReadBool());
  EXPECT_EQ(reader->ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(reader->ReadU64(), 1ull << 40);
  EXPECT_EQ(reader->ReadI32(), -12345);
  EXPECT_EQ(reader->ReadI64(), -(1ll << 50));
  EXPECT_EQ(reader->ReadDouble(), 0.1234567890123456789);  // bit-exact
  EXPECT_EQ(reader->ReadString(), "hello snapshot");
  EXPECT_EQ(reader->ReadDoubleVec(), (std::vector<double>{1.5, -2.5, 1e-300}));
  EXPECT_TRUE(reader->ok());
  EXPECT_EQ(reader->Remaining(), 0u);
}

TEST(BinaryIoTest, PeekStringDoesNotConsume) {
  SnapshotWriter writer;
  writer.WriteString("tag");
  writer.WriteI32(42);
  auto reader = SnapshotReader::FromBytes(writer.Serialize());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->PeekString(), "tag");
  EXPECT_EQ(reader->PeekString(), "tag");
  EXPECT_EQ(reader->ReadString(), "tag");
  EXPECT_EQ(reader->ReadI32(), 42);
}

TEST(BinaryIoTest, ReadPastEndLatchesStickyError) {
  SnapshotWriter writer;
  writer.WriteU32(1);
  auto reader = SnapshotReader::FromBytes(writer.Serialize());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->ReadU32(), 1u);
  EXPECT_EQ(reader->ReadU64(), 0u);  // past end: zero value
  EXPECT_FALSE(reader->ok());
  EXPECT_EQ(reader->ReadU32(), 0u);  // stays failed
  EXPECT_FALSE(reader->status().ok());
}

TEST(BinaryIoTest, HugeLengthPrefixIsRejectedWithoutAllocating) {
  SnapshotWriter writer;
  writer.WriteU64(~0ull);  // claims a ~2^64-byte string follows
  auto reader = SnapshotReader::FromBytes(writer.Serialize());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->ReadString(), "");
  EXPECT_FALSE(reader->ok());
}

TEST(BinaryIoTest, ChecksumCatchesBitFlip) {
  SnapshotWriter writer;
  writer.WriteString("payload payload payload");
  std::string framed = writer.Serialize();
  framed[framed.size() - 12] ^= 1;  // inside the payload
  EXPECT_FALSE(SnapshotReader::FromBytes(framed).ok());
}

TEST(BinaryIoTest, Fnv1a64MatchesKnownVector) {
  // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c (published test vector).
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ull);
}

class SnapshotFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fdm_binary_io_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::filesystem::permissions(dir_, std::filesystem::perms::owner_all,
                                 std::filesystem::perm_options::add);
    std::filesystem::remove_all(dir_);
  }

  /// Writes `writes` to a file writer at `path` and commits.
  static Status WriteFile(const std::string& path,
                          const std::function<void(SnapshotWriter&)>& writes) {
    auto writer = SnapshotWriter::ToFile(path);
    if (!writer.ok()) return writer.status();
    writes(*writer);
    return writer->Commit();
  }

  std::string dir_;
};

// The streamed file must hold exactly the bytes the in-memory writer
// frames, whatever the chunking: nothing, exactly one chunk, one span
// larger than a chunk (written straight through), and many small writes
// crossing several chunk boundaries.
TEST_F(SnapshotFileTest, StreamedFileBytesEqualSerialize) {
  std::vector<int64_t> big(20'000);
  std::iota(big.begin(), big.end(), -7);
  const std::vector<double> one_chunk(
      (SnapshotWriter::kChunkBytes - sizeof(uint64_t)) / sizeof(double), 0.25);
  const std::vector<std::pair<std::string,
                              std::function<void(SnapshotWriter&)>>>
      cases = {
          {"empty", [](SnapshotWriter&) {}},
          {"exactly_one_chunk",
           [&](SnapshotWriter& w) { w.WriteDoubleSpan(one_chunk); }},
          {"span_larger_than_a_chunk",
           [&](SnapshotWriter& w) {
             w.WriteString("head");
             w.WriteI64Span(big);
             w.WriteU32(9);
           }},
          {"small_writes_across_chunks",
           [](SnapshotWriter& w) {
             for (int i = 0; i < 30'000; ++i) {
               w.WriteDouble(i * 0.5);
               if (i % 7 == 0) w.WriteU8(static_cast<uint8_t>(i));
             }
           }},
      };
  for (const auto& [name, writes] : cases) {
    SCOPED_TRACE(name);
    SnapshotWriter memory;
    writes(memory);
    const std::string path = dir_ + "/" + name + ".snap";
    auto writer = SnapshotWriter::ToFile(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    writes(*writer);
    EXPECT_EQ(writer->PayloadBytes(), memory.PayloadBytes());
    ASSERT_TRUE(writer->Commit().ok());
    auto bytes = ReadFileToString(path);
    ASSERT_TRUE(bytes.ok());
    EXPECT_TRUE(*bytes == memory.Serialize());
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    EXPECT_TRUE(SnapshotReader::FromFile(path).ok());
  }
  EXPECT_EQ(SnapshotWriter().PayloadBytes(), 0u);
}

// An unfinished writer (error path, early return) must not leave its
// temp file behind, and the snapshot it would have replaced stays.
TEST_F(SnapshotFileTest, AbandonedWriterRemovesItsTempFile) {
  const std::string path = dir_ + "/s.snap";
  ASSERT_TRUE(WriteFile(path, [](SnapshotWriter& w) { w.WriteU64(1); }).ok());
  {
    auto writer = SnapshotWriter::ToFile(path);
    ASSERT_TRUE(writer.ok());
    writer->WriteString(std::string(200'000, 'x'));
    EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto reader = SnapshotReader::FromFile(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->ReadU64(), 1u);
}

TEST_F(SnapshotFileTest, UnwritableDirectoryLeavesNoTempAndKeepsPrevious) {
  const std::string path = dir_ + "/s.snap";
  ASSERT_TRUE(WriteFile(path, [](SnapshotWriter& w) { w.WriteU64(1); }).ok());
  ASSERT_EQ(::chmod(dir_.c_str(), 0500), 0);
  if (::access(dir_.c_str(), W_OK) == 0) {
    GTEST_SKIP() << "this user writes through directory permissions "
                    "(StreamedWriteFailure covers the failure path)";
  }
  const Status failed =
      WriteFile(path, [](SnapshotWriter& w) { w.WriteU64(2); });
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto reader = SnapshotReader::FromFile(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->ReadU64(), 1u);
}

// A write that fails after chunks have reached the temp file (here: the
// file-size limit, EFBIG) surfaces at Commit, removes the temp file and
// keeps the previous snapshot — for any user, unlike directory modes.
TEST_F(SnapshotFileTest, StreamedWriteFailureLeavesNoTempAndKeepsPrevious) {
  const std::string path = dir_ + "/s.snap";
  ASSERT_TRUE(WriteFile(path, [](SnapshotWriter& w) { w.WriteU64(1); }).ok());

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  const auto saved_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit limited = saved;
  limited.rlim_cur = 3 * SnapshotWriter::kChunkBytes;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limited), 0);
  const Status failed = WriteFile(path, [](SnapshotWriter& w) {
    for (int i = 0; i < 100'000; ++i) w.WriteDouble(i);
  });
  ::setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, saved_handler);

  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto reader = SnapshotReader::FromFile(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->ReadU64(), 1u);
}

}  // namespace
}  // namespace fdm
