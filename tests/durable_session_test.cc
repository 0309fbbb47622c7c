// Crash-recovery semantics of one durable session: snapshot + WAL tail
// replay reproduces the uninterrupted run bit-identically, for every
// registered algorithm kind, with the kill-point injected between the WAL
// append of the tail and the next snapshot.

#include "service/durable_session.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "service/session_layout.h"
#include "service/sink_spec.h"

namespace fdm {
namespace {

class DurableSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fdm_durable_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

Dataset TestData(int m, size_t n = 150, uint64_t seed = 31) {
  BlobsOptions opt;
  opt.n = n;
  opt.num_groups = m;
  opt.seed = seed;
  return MakeBlobs(opt);
}

std::string BoundsSuffix(const Dataset& ds) {
  const DistanceBounds b = ComputeDistanceBoundsExact(ds);
  return " dmin=" + std::to_string(b.min) + " dmax=" + std::to_string(b.max);
}

void ExpectSameSolution(const StreamSink& a, const StreamSink& b) {
  ASSERT_EQ(a.ObservedElements(), b.ObservedElements());
  ASSERT_EQ(a.StoredElements(), b.StoredElements());
  const auto sa = a.Solve();
  const auto sb = b.Solve();
  ASSERT_EQ(sa.ok(), sb.ok());
  if (!sa.ok()) return;
  EXPECT_EQ(sa->Ids(), sb->Ids());
  EXPECT_DOUBLE_EQ(sa->diversity, sb->diversity);
  EXPECT_DOUBLE_EQ(sa->mu, sb->mu);
}

TEST_F(DurableSessionTest, BasicLifecycle) {
  const Dataset ds = TestData(2);
  const std::string spec = "algo=sfdm2 dim=2 quotas=2,2" + BoundsSuffix(ds);
  auto session = DurableSession::Create(dir_, spec);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (size_t i = 0; i < ds.size(); ++i) {
    ASSERT_TRUE(session->Observe(ds.At(i)).ok());
  }
  EXPECT_EQ(session->ObservedElements(), static_cast<int64_t>(ds.size()));
  const auto solution = session->Solve();
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_EQ(solution->points.size(), 4u);
  ASSERT_TRUE(session->TakeSnapshot().ok());
  EXPECT_EQ(session->SnapshotSeq(), static_cast<int64_t>(ds.size()));
}

TEST_F(DurableSessionTest, CreateTwiceFails) {
  const std::string spec = "algo=adaptive dim=2 k=3";
  ASSERT_TRUE(DurableSession::Create(dir_, spec).ok());
  EXPECT_FALSE(DurableSession::Create(dir_, spec).ok());
}

TEST_F(DurableSessionTest, OpenWithoutSessionFails) {
  EXPECT_FALSE(DurableSession::Open(dir_ + "/nothing-here").ok());
}

// The acceptance-criteria test: for every registered algorithm kind, kill
// the session between the WAL append of the tail and the next snapshot;
// recovery = snapshot + WAL tail replay must be bit-identical to an
// uninterrupted run over the same stream.
TEST_F(DurableSessionTest, CrashRecoveryBitIdenticalForEveryKind) {
  const Dataset ds2 = TestData(2);
  const Dataset ds3 = TestData(3, 150, 33);
  struct Case {
    const Dataset* data;
    std::string spec;
  };
  const std::vector<Case> cases = {
      {&ds2, "algo=streaming_dm dim=2 k=4" + BoundsSuffix(ds2)},
      {&ds2, "algo=sfdm1 dim=2 quotas=2,2" + BoundsSuffix(ds2)},
      {&ds3, "algo=sfdm2 dim=2 quotas=2,1,2" + BoundsSuffix(ds3)},
      {&ds2, "algo=adaptive dim=2 k=4"},
      {&ds2, "algo=sharded dim=2 k=4 shards=3" + BoundsSuffix(ds2)},
      {&ds2, "algo=sliding_window dim=2 k=4 window=60 checkpoints=3" +
                 BoundsSuffix(ds2)},
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE(cases[c].spec);
    const Dataset& ds = *cases[c].data;
    const std::string dir = dir_ + "/case" + std::to_string(c);

    // Uninterrupted reference run over the full stream.
    auto reference = MakeSinkFromSpec(cases[c].spec);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (size_t i = 0; i < ds.size(); ++i) {
      (*reference)->Observe(ds.At(i));
    }

    // Durable run: snapshot at the midpoint, then a WAL-only tail, then
    // the kill-point — the DurableSession object is dropped with records
    // appended to the WAL but NOT captured by any snapshot.
    {
      auto session = DurableSession::Create(dir, cases[c].spec);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      const size_t mid = ds.size() / 2;
      for (size_t i = 0; i < mid; ++i) {
        ASSERT_TRUE(session->Observe(ds.At(i)).ok());
      }
      ASSERT_TRUE(session->TakeSnapshot().ok());
      for (size_t i = mid; i < ds.size(); ++i) {
        ASSERT_TRUE(session->Observe(ds.At(i)).ok());
      }
      EXPECT_LT(session->SnapshotSeq(),
                static_cast<int64_t>(ds.size()));  // the tail is WAL-only
    }  // kill-point: no snapshot of the tail

    auto recovered = DurableSession::Open(dir);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ExpectSameSolution(**reference, recovered->sink());
  }
}

TEST_F(DurableSessionTest, PowerLossTornTailRecoversToLastIntactRecord) {
  // Harder than the graceful kill above: after the process dies, the WAL's
  // final record is torn (power loss mid-write). Recovery must come back
  // bit-identical to an uninterrupted run over the stream MINUS the torn
  // record.
  const Dataset ds = TestData(2, 120, 39);
  const std::string spec = "algo=sfdm2 dim=2 quotas=2,2" + BoundsSuffix(ds);
  {
    auto session = DurableSession::Create(dir_, spec);
    ASSERT_TRUE(session.ok());
    for (size_t i = 0; i < ds.size(); ++i) {
      ASSERT_TRUE(session->Observe(ds.At(i)).ok());
    }
  }
  // Tear the newest segment's tail by a few bytes.
  std::string newest;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/wal")) {
    const std::string path = entry.path().string();
    if (path > newest) newest = path;
  }
  ASSERT_FALSE(newest.empty());
  std::filesystem::resize_file(newest,
                               std::filesystem::file_size(newest) - 3);

  auto recovered = DurableSession::Open(dir_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->ObservedElements(),
            static_cast<int64_t>(ds.size()) - 1);
  auto reference = MakeSinkFromSpec(spec);
  ASSERT_TRUE(reference.ok());
  for (size_t i = 0; i + 1 < ds.size(); ++i) {
    (*reference)->Observe(ds.At(i));
  }
  ExpectSameSolution(**reference, recovered->sink());
}

TEST_F(DurableSessionTest, RejectsInvalidPointsBeforeTheWal) {
  const Dataset ds = TestData(2, 60, 40);
  const std::vector<double> short_coords = {1.0};
  const std::vector<double> inf_coords = {1.0, HUGE_VAL};
  const std::vector<double> nan_coords = {std::nan(""), 1.0};
  const std::vector<double> ok_coords = {1.0, 2.0};
  for (const std::string algo :
       {"algo=sfdm2 dim=2 quotas=2,2", "algo=sfdm1 dim=2 quotas=2,2"}) {
    SCOPED_TRACE(algo);
    const std::string dir = dir_ + "/" + algo.substr(5, 5);
    {
      auto session = DurableSession::Create(dir, algo + BoundsSuffix(ds));
      ASSERT_TRUE(session.ok());
      ASSERT_TRUE(session->Observe(ds.At(0)).ok());
      for (const StreamPoint& bad :
           {StreamPoint{99, 0, short_coords}, StreamPoint{99, 0, inf_coords},
            StreamPoint{99, 1, nan_coords}, StreamPoint{99, 2, ok_coords},
            StreamPoint{99, -1, ok_coords}}) {
        const Status rejected = session->Observe(bad);
        ASSERT_FALSE(rejected.ok());
        EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
        // One bad point rejects the whole batch.
        const std::vector<StreamPoint> batch = {ds.At(1), bad, ds.At(2)};
        EXPECT_EQ(session->ObserveBatch(batch).code(),
                  StatusCode::kInvalidArgument);
      }
      // The malformed points must not have reached the sink or the WAL.
      EXPECT_EQ(session->ObservedElements(), 1);
    }
    auto recovered = DurableSession::Open(dir);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->ObservedElements(), 1);
  }
}

// A checksum-valid WAL record the spec does not admit (written past the
// session's ingest check, e.g. by an older build or a foreign writer) must
// fail the open with an error naming its segment and seq, not abort in a
// sink's FDM_CHECK (group = m) or come back into the sink (NaN).
TEST_F(DurableSessionTest, OpenRejectsLoggedRecordsOutsideTheSpec) {
  const Dataset ds = TestData(2);
  const std::string spec = "algo=sfdm2 dim=2 quotas=2,2" + BoundsSuffix(ds);
  const double nan = std::nan("");
  const std::vector<double> good = {0.5, 0.5};
  const std::vector<double> not_finite = {0.5, nan};
  struct Case {
    std::string name;
    StreamPoint bad;
    std::string message;
  };
  const std::vector<Case> cases = {
      {"group_m", StreamPoint{1000, 2, good}, "point group 2 out of range"},
      {"nan", StreamPoint{1000, 0, not_finite}, "must be finite"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir = dir_ + "/" + c.name;
    {
      auto session = DurableSession::Create(dir, spec);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      for (size_t i = 0; i < 10; ++i) {
        ASSERT_TRUE(session->Observe(ds.At(i)).ok());
      }
    }
    {
      auto wal = WriteAheadLog::Open(dir + "/wal");
      ASSERT_TRUE(wal.ok()) << wal.status().ToString();
      ASSERT_TRUE(wal->Append(c.bad).ok());
      ASSERT_TRUE(wal->Sync().ok());
    }
    auto reopened = DurableSession::Open(dir);
    ASSERT_FALSE(reopened.ok());
    const std::string message = reopened.status().message();
    EXPECT_NE(message.find("seq 11"), std::string::npos) << message;
    EXPECT_NE(message.find(WalSegmentFileName(1)), std::string::npos)
        << message;
    EXPECT_NE(message.find(c.message), std::string::npos) << message;
  }
}

TEST_F(DurableSessionTest, RecoveryFallsBackWhenNewestSnapshotIsCorrupt) {
  const Dataset ds = TestData(1);
  const std::string spec = "algo=streaming_dm dim=2 k=4" + BoundsSuffix(ds);
  {
    auto session = DurableSession::Create(dir_, spec);
    ASSERT_TRUE(session.ok());
    for (size_t i = 0; i < ds.size(); ++i) {
      ASSERT_TRUE(session->Observe(ds.At(i)).ok());
    }
    ASSERT_TRUE(session->TakeSnapshot().ok());
  }
  // Corrupt the (only) snapshot file: recovery must fall back to a fresh
  // sink + full WAL replay and still reach the same state.
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/snap")) {
    std::filesystem::resize_file(
        entry.path(), std::filesystem::file_size(entry.path()) / 2);
  }
  auto recovered = DurableSession::Open(dir_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto reference = MakeSinkFromSpec(spec);
  ASSERT_TRUE(reference.ok());
  for (size_t i = 0; i < ds.size(); ++i) (*reference)->Observe(ds.At(i));
  ExpectSameSolution(**reference, recovered->sink());
}

TEST_F(DurableSessionTest, FallbackToOlderSnapshotAfterNewestCorrupts) {
  // Two snapshots are retained (keep_snapshots = 2). The WAL must keep
  // everything after the OLDEST retained snapshot, so that when the
  // newest snapshot fails its checksum, recovery rolls forward from the
  // older one across the full gap — even with segment rotation pruning in
  // between.
  const Dataset ds = TestData(1, 300, 37);
  DurableSessionOptions options;
  options.wal.segment_bytes = 2048;  // rotation makes pruning real
  const std::string spec = "algo=streaming_dm dim=2 k=4" + BoundsSuffix(ds);
  auto reference = MakeSinkFromSpec(spec);
  ASSERT_TRUE(reference.ok());
  {
    auto session = DurableSession::Create(dir_, spec, options);
    ASSERT_TRUE(session.ok());
    for (size_t i = 0; i < ds.size(); ++i) {
      (*reference)->Observe(ds.At(i));
      ASSERT_TRUE(session->Observe(ds.At(i)).ok());
      if (i + 1 == 100 || i + 1 == 200) {
        ASSERT_TRUE(session->TakeSnapshot().ok());
      }
    }
  }
  // Corrupt the newest snapshot (largest seq; zero-padded names sort).
  std::string newest;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/snap")) {
    const std::string path = entry.path().string();
    if (path > newest) newest = path;
  }
  ASSERT_FALSE(newest.empty());
  std::filesystem::resize_file(newest,
                               std::filesystem::file_size(newest) / 2);

  auto recovered = DurableSession::Open(dir_, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->SnapshotSeq(), 100);  // the older snapshot won
  ExpectSameSolution(**reference, recovered->sink());
}

// The checkpoint rule is what bounds crash recovery: after an ingest the
// session snapshots once the WAL since its newest snapshot reaches
// kCheckpointWalRatio × max(that snapshot's payload, kCheckpointFloorBytes).
// Ingests `n` points in 1000-point batches, drops the session without a
// final snapshot (a crash), reopens it, and checks that the replay is
// exactly the records past the newest snapshot on disk, that it stays
// under the rule's bound computed from that file's size, and that the
// recovered sink solves bit-identically to one fed the whole stream.
// Returns the seqs of the snapshots left on disk.
std::vector<int64_t> CrashAndCheckReplayBound(const std::string& dir,
                                              bool dedup, size_t n) {
  BlobsOptions opt;
  opt.n = n;
  opt.seed = 47;
  const Dataset ds = MakeBlobs(opt);
  const std::string spec = std::string("algo=sfdm2 dim=2 quotas=2,2 ") +
                           "dmin=0.05 dmax=40" + (dedup ? " dedup=on" : "");
  auto reference = MakeSinkFromSpec(spec);
  EXPECT_TRUE(reference.ok());
  if (!reference.ok()) return {};
  constexpr size_t kBatch = 1000;
  {
    auto session = DurableSession::Create(dir, spec);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    if (!session.ok()) return {};
    std::vector<StreamPoint> batch;
    for (size_t begin = 0; begin < n; begin += kBatch) {
      batch.clear();
      for (size_t i = begin; i < std::min(n, begin + kBatch); ++i) {
        batch.push_back(ds.At(i));
      }
      EXPECT_TRUE(session->ObserveBatch(batch).ok());
      (*reference)->ObserveBatch(batch);
    }
  }  // dropped: no final snapshot

  const auto snapshots = ListSessionSnapshots(dir + "/snap");
  EXPECT_FALSE(snapshots.empty());
  if (snapshots.empty()) return {};
  std::vector<int64_t> snapshot_seqs;
  for (const auto& snapshot : snapshots) snapshot_seqs.push_back(snapshot.first);
  // Framing: magic, version and size before the payload, checksum after.
  const int64_t newest_payload =
      static_cast<int64_t>(std::filesystem::file_size(snapshots.back().second)) -
      28;

  auto recovered = DurableSession::Open(dir);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
  if (!recovered.ok()) return {};
  const int64_t newest = snapshot_seqs.back();
  const int64_t replayed = recovered->IngestCounters().replayed_records;
  const int64_t bound = 4 * std::max<int64_t>(newest_payload, 1 << 20) /
                        static_cast<int64_t>(WalRecordBytes(2));
  EXPECT_EQ(recovered->SnapshotSeq(), newest);
  EXPECT_EQ(replayed, static_cast<int64_t>(n) - newest);
  EXPECT_LE(replayed, bound);
  EXPECT_EQ(recovered->CheckpointWalBytes(),
            4 * std::max<int64_t>(newest_payload, 1 << 20));
  ExpectSameSolution(**reference, recovered->sink());
  EXPECT_EQ(recovered->StateVersion(), (*reference)->StateVersion());
  return snapshot_seqs;
}

TEST_F(DurableSessionTest, CheckpointRuleBoundsCrashReplay) {
  // Under the 1 MiB floor a 52-byte record checkpoints every
  // ceil(4 MiB / 52) = 80,660 records, i.e. at the ends of the batches
  // holding records 80,660 and 161,660: seqs 81,000 and 162,000.
  const std::vector<int64_t> seqs =
      CrashAndCheckReplayBound(dir_, /*dedup=*/false, 200'000);
  EXPECT_EQ(seqs, (std::vector<int64_t>{81'000, 162'000}));
}

TEST_F(DurableSessionTest, CheckpointRuleScalesWithTheDedupFooter) {
  // With dedup=on the footer holds every id (8 bytes each), so the
  // snapshot outgrows the 1 MiB floor and the rule's interval grows with
  // it: the gap after the second checkpoint exceeds the floor's 80,660.
  const std::vector<int64_t> seqs =
      CrashAndCheckReplayBound(dir_, /*dedup=*/true, 300'000);
  ASSERT_EQ(seqs.size(), 2u);  // keep_snapshots = 2
  EXPECT_GT(seqs[1] - seqs[0], 81'000);
}

TEST_F(DurableSessionTest, SnapshotPrunesWalSegments) {
  const Dataset ds = TestData(1, 400, 35);
  DurableSessionOptions options;
  options.wal.segment_bytes = 2048;  // force rotations
  const std::string spec = "algo=streaming_dm dim=2 k=3" + BoundsSuffix(ds);
  auto session = DurableSession::Create(dir_, spec, options);
  ASSERT_TRUE(session.ok());
  for (size_t i = 0; i < ds.size(); ++i) {
    ASSERT_TRUE(session->Observe(ds.At(i)).ok());
  }
  size_t segments_before = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/wal")) {
    ++segments_before;
  }
  ASSERT_GT(segments_before, 2u);
  ASSERT_TRUE(session->TakeSnapshot().ok());
  size_t segments_after = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/wal")) {
    ++segments_after;
  }
  // The snapshot covers the whole log; only the active segment survives.
  EXPECT_EQ(segments_after, 1u);
}

}  // namespace
}  // namespace fdm
