// Crash-recovery semantics of one durable session: snapshot + WAL tail
// replay reproduces the uninterrupted run bit-identically, for every
// registered algorithm kind, with the kill-point injected between the WAL
// append of the tail and the next snapshot.

#include "service/durable_session.h"

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
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

TEST_F(DurableSessionTest, AutoSnapshotHonorsCadence) {
  const Dataset ds = TestData(1);
  DurableSessionOptions options;
  options.snapshot_every = 40;
  const std::string spec = "algo=streaming_dm dim=2 k=3" + BoundsSuffix(ds);
  auto session = DurableSession::Create(dir_, spec, options);
  ASSERT_TRUE(session.ok());
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(session->Observe(ds.At(i)).ok());
  }
  // 100 observations at cadence 40 → snapshots at 40 and 80.
  EXPECT_EQ(session->SnapshotSeq(), 80);
  EXPECT_EQ(session->UnsnapshottedRecords(), 20);
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
