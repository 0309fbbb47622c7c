// Snapshot round-trip invariants for every sink kind: restoring a snapshot
// taken after ANY stream prefix yields a sink whose Solve(),
// StoredElements(), and ObservedElements() are bit-identical to the
// uninterrupted instance — and which keeps evolving identically when the
// rest of the stream is fed to both.

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive_streaming_dm.h"
#include "core/sfdm1.h"
#include "core/sfdm2.h"
#include "core/sharded_stream.h"
#include "core/sink_snapshot.h"
#include "core/sliding_window.h"
#include "core/streaming_dm.h"
#include "core/guess_ladder.h"
#include "data/synthetic.h"
#include "util/binary_io.h"

namespace fdm {
namespace {

Dataset SmallData(int m, uint64_t seed = 41, size_t n = 60) {
  BlobsOptions opt;
  opt.n = n;
  opt.num_groups = m;
  opt.seed = seed;
  return MakeBlobs(opt);
}

StreamingOptions OptionsFor(const Dataset& ds) {
  const DistanceBounds b = ComputeDistanceBoundsExact(ds);
  StreamingOptions o;
  o.epsilon = 0.1;
  o.d_min = b.min;
  o.d_max = b.max;
  return o;
}

template <typename Algo>
Result<Algo> RoundTrip(const Algo& algo) {
  SnapshotWriter writer;
  Status snap = algo.Snapshot(writer);
  if (!snap.ok()) return snap;
  auto reader = SnapshotReader::FromBytes(writer.Serialize());
  if (!reader.ok()) return reader.status();
  return Algo::Restore(*reader);
}

template <typename Algo>
void ExpectIdentical(const Algo& original, const Algo& restored) {
  EXPECT_EQ(original.ObservedElements(), restored.ObservedElements());
  EXPECT_EQ(original.StoredElements(), restored.StoredElements());
  const auto a = original.Solve();
  const auto b = restored.Solve();
  ASSERT_EQ(a.ok(), b.ok());
  if (!a.ok()) {
    EXPECT_EQ(a.status().code(), b.status().code());
    return;
  }
  EXPECT_EQ(a->Ids(), b->Ids());
  EXPECT_DOUBLE_EQ(a->diversity, b->diversity);
  EXPECT_DOUBLE_EQ(a->mu, b->mu);
  ASSERT_EQ(a->points.size(), b->points.size());
  for (size_t i = 0; i < a->points.size(); ++i) {
    for (size_t d = 0; d < a->points.dim(); ++d) {
      EXPECT_EQ(a->points.CoordsAt(i)[d], b->points.CoordsAt(i)[d]);
    }
  }
}

/// The satellite-task harness: snapshot after EVERY prefix length of a
/// small stream; each restored instance must match, and the one restored
/// at the midpoint must stay identical through the rest of the stream.
template <typename Algo>
void RunPrefixRoundTrips(const Dataset& ds, Algo algo) {
  std::unique_ptr<Algo> resumed;  // restored at the midpoint, then fed on
  for (size_t i = 0; i < ds.size(); ++i) {
    algo.Observe(ds.At(i));
    if (resumed != nullptr) resumed->Observe(ds.At(i));
    auto restored = RoundTrip(algo);
    ASSERT_TRUE(restored.ok())
        << "prefix " << (i + 1) << ": " << restored.status().ToString();
    ExpectIdentical(algo, *restored);
    if (i + 1 == ds.size() / 2) {
      resumed = std::make_unique<Algo>(std::move(restored.value()));
    }
  }
  ASSERT_NE(resumed, nullptr);
  ExpectIdentical(algo, *resumed);
}

TEST(SnapshotTest, StreamingDmEveryPrefix) {
  const Dataset ds = SmallData(1);
  auto algo = StreamingDm::Create(4, ds.dim(), ds.metric_kind(),
                                  OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  RunPrefixRoundTrips(ds, std::move(algo.value()));
}

TEST(SnapshotTest, Sfdm1EveryPrefix) {
  const Dataset ds = SmallData(2);
  FairnessConstraint constraint;
  constraint.quotas = {2, 2};
  auto algo =
      Sfdm1::Create(constraint, ds.dim(), ds.metric_kind(), OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  RunPrefixRoundTrips(ds, std::move(algo.value()));
}

TEST(SnapshotTest, Sfdm2EveryPrefix) {
  const Dataset ds = SmallData(3);
  FairnessConstraint constraint;
  constraint.quotas = {2, 1, 2};
  auto algo =
      Sfdm2::Create(constraint, ds.dim(), ds.metric_kind(), OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  RunPrefixRoundTrips(ds, std::move(algo.value()));
}

TEST(SnapshotTest, AdaptiveStreamingDmEveryPrefix) {
  const Dataset ds = SmallData(1, 43);
  auto algo =
      AdaptiveStreamingDm::Create(4, ds.dim(), ds.metric_kind(), 0.1);
  ASSERT_TRUE(algo.ok());
  RunPrefixRoundTrips(ds, std::move(algo.value()));
}

TEST(SnapshotTest, ShardedStreamingDmEveryPrefix) {
  const Dataset ds = SmallData(1, 44);
  ShardedStreamingOptions sharding;
  sharding.num_shards = 3;
  auto algo = ShardedStreamingDm::Create(4, ds.dim(), ds.metric_kind(),
                                         OptionsFor(ds), sharding);
  ASSERT_TRUE(algo.ok());
  RunPrefixRoundTrips(ds, std::move(algo.value()));
}

TEST(SnapshotTest, SlidingWindowEveryPrefix) {
  const Dataset ds = SmallData(1, 45, 80);
  const StreamingOptions streaming = OptionsFor(ds);
  const size_t dim = ds.dim();
  const MetricKind metric = ds.metric_kind();
  auto algo = SlidingWindow<StreamingDm>::Create(
      30, 3, [dim, metric, streaming] {
        return StreamingDm::Create(4, dim, metric, streaming);
      });
  ASSERT_TRUE(algo.ok());
  RunPrefixRoundTrips(ds, std::move(algo.value()));
}

TEST(SnapshotTest, Sfdm2PreservesAblationKnobs) {
  const Dataset ds = SmallData(2, 46);
  FairnessConstraint constraint;
  constraint.quotas = {2, 2};
  auto algo =
      Sfdm2::Create(constraint, ds.dim(), ds.metric_kind(), OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  algo->set_warm_start(false);
  algo->set_greedy_augmentation(false);
  for (size_t i = 0; i < ds.size(); ++i) algo->Observe(ds.At(i));
  auto restored = RoundTrip(*algo);
  ASSERT_TRUE(restored.ok());
  EXPECT_FALSE(restored->warm_start());
  EXPECT_FALSE(restored->greedy_augmentation());
}

TEST(SnapshotTest, DispatcherRestoresByTag) {
  const Dataset ds = SmallData(2, 47);
  FairnessConstraint constraint;
  constraint.quotas = {2, 2};
  auto algo =
      Sfdm2::Create(constraint, ds.dim(), ds.metric_kind(), OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  for (size_t i = 0; i < ds.size(); ++i) algo->Observe(ds.At(i));

  SnapshotWriter writer;
  ASSERT_TRUE(algo->Snapshot(writer).ok());
  auto reader = SnapshotReader::FromBytes(writer.Serialize());
  ASSERT_TRUE(reader.ok());
  auto restored = RestoreSink(*reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const auto a = algo->Solve();
  const auto b = (*restored)->Solve();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->Ids(), b->Ids());
  EXPECT_DOUBLE_EQ(a->diversity, b->diversity);
}

TEST(SnapshotTest, CorruptionIsDetected) {
  const Dataset ds = SmallData(1, 48);
  auto algo = StreamingDm::Create(4, ds.dim(), ds.metric_kind(),
                                  OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  for (size_t i = 0; i < ds.size(); ++i) algo->Observe(ds.At(i));
  SnapshotWriter writer;
  ASSERT_TRUE(algo->Snapshot(writer).ok());
  std::string framed = writer.Serialize();

  // Flip one payload byte: the frame checksum must reject the file.
  std::string corrupt = framed;
  corrupt[corrupt.size() / 2] ^= 0x40;
  EXPECT_FALSE(SnapshotReader::FromBytes(corrupt).ok());

  // Truncation must be rejected too.
  EXPECT_FALSE(
      SnapshotReader::FromBytes(framed.substr(0, framed.size() - 9)).ok());

  // And a wrong magic.
  std::string not_snap = framed;
  not_snap[0] = 'X';
  EXPECT_FALSE(SnapshotReader::FromBytes(not_snap).ok());
}

TEST(SnapshotTest, FileRoundTrip) {
  const Dataset ds = SmallData(1, 49);
  auto algo = StreamingDm::Create(3, ds.dim(), ds.metric_kind(),
                                  OptionsFor(ds));
  ASSERT_TRUE(algo.ok());
  for (size_t i = 0; i < ds.size(); ++i) algo->Observe(ds.At(i));

  const std::string path = ::testing::TempDir() + "/fdm_snapshot_test.snap";
  auto writer = SnapshotWriter::ToFile(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(algo->Snapshot(*writer).ok());
  ASSERT_TRUE(writer->Commit().ok());
  auto reader = SnapshotReader::FromFile(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto restored = StreamingDm::Restore(*reader);
  ASSERT_TRUE(restored.ok());
  ExpectIdentical(*algo, *restored);
  std::remove(path.c_str());
}


// --- Restore rejects stored points that Solve would index out of bounds.
// The snapshots below are built by hand in the writers' field order, so
// they carry valid checksums: only the restore-side checks stand between
// a bad stored group and an out-of-bounds write in Solve.

struct StoredPoint {
  int64_t id;
  int32_t group;
  std::vector<double> coords;
};
using StoredBuffer = std::vector<StoredPoint>;

constexpr size_t kHandDim = 2;
constexpr double kHandDMin = 1.0;
constexpr double kHandDMax = 16.0;
constexpr double kHandEpsilon = 0.5;

/// One point buffer in `SerializePointBuffer`'s layout.
void WriteStoredBuffer(SnapshotWriter& writer, const StoredBuffer& points) {
  std::vector<int64_t> ids;
  std::vector<int32_t> groups;
  std::vector<double> coords;
  for (const StoredPoint& p : points) {
    ids.push_back(p.id);
    groups.push_back(p.group);
    coords.insert(coords.end(), p.coords.begin(), p.coords.end());
  }
  writer.WriteU64(kHandDim);
  writer.WriteI64Span(ids);
  writer.WriteI32Span(groups);
  writer.WriteDoubleSpan(coords);
}

/// A fair snapshot with quotas {1, 1} (k = 2, m = 2), in the field order
/// of `Sfdm1::Snapshot` or `Sfdm2::Snapshot`: the first rung's blind,
/// group-0 and group-1 candidates hold the given points and every other
/// rung is empty.
std::string FairSnapshot(std::string_view tag, const StoredBuffer& blind,
                         const StoredBuffer& group0,
                         const StoredBuffer& group1) {
  const bool sfdm2 = tag == Sfdm2::kSnapshotTag;
  const auto ladder = GuessLadder::Create(kHandDMin, kHandDMax, kHandEpsilon);
  EXPECT_TRUE(ladder.ok());
  SnapshotWriter writer;
  writer.WriteString(tag);
  writer.WriteU64(2);  // quota count m
  writer.WriteI32(1);
  writer.WriteI32(1);
  writer.WriteU64(kHandDim);
  writer.WriteU8(static_cast<uint8_t>(MetricKind::kEuclidean));
  writer.WriteDouble(kHandDMin);
  writer.WriteDouble(kHandDMax);
  writer.WriteDouble(kHandEpsilon);
  writer.WriteI32(1);  // retired thread slots
  writer.WriteI32(1);
  if (sfdm2) {
    writer.WriteBool(true);  // warm_start
    writer.WriteBool(true);  // greedy_augmentation
  }
  writer.WriteI64(2);  // observed
  writer.WriteU64(4);  // state_version
  writer.WriteU64(ladder->size());
  for (size_t j = 0; j < ladder->size(); ++j) {
    WriteStoredBuffer(writer, j == 0 ? blind : StoredBuffer{});
    WriteStoredBuffer(writer, j == 0 ? group0 : StoredBuffer{});
    WriteStoredBuffer(writer, j == 0 ? group1 : StoredBuffer{});
  }
  return writer.Serialize();
}

/// Restores `framed` and, if that succeeds, answers a SOLVE the way a
/// server would next.
template <typename Algo>
Status RestoreAndSolve(const std::string& framed) {
  auto reader = SnapshotReader::FromBytes(framed);
  if (!reader.ok()) return reader.status();
  auto restored = Algo::Restore(*reader);
  if (!restored.ok()) return restored.status();
  return restored->Solve().status();
}

template <typename Algo>
void ExpectRestoreRejectsInvalidPoints() {
  const std::string_view tag = Algo::kSnapshotTag;
  const StoredPoint a{0, 0, {0.0, 0.0}};
  const StoredPoint b{1, 1, {20.0, 0.0}};
  // The hand-built layout is right: valid points restore and solve.
  EXPECT_TRUE(RestoreAndSolve<Algo>(FairSnapshot(tag, {a, b}, {a}, {b})).ok());

  // A blind candidate holding group m = 2.
  const StoredPoint group_m{1, 2, {20.0, 0.0}};
  const Status bad_blind =
      RestoreAndSolve<Algo>(FairSnapshot(tag, {a, group_m}, {a}, {b}));
  EXPECT_FALSE(bad_blind.ok());
  EXPECT_NE(bad_blind.ToString().find("group 2"), std::string::npos)
      << bad_blind.ToString();
  // A group-0 candidate holding a group-1 point.
  EXPECT_FALSE(
      RestoreAndSolve<Algo>(FairSnapshot(tag, {a, b}, {b}, {b})).ok());
  // A negative group.
  const StoredPoint negative{1, -1, {20.0, 0.0}};
  EXPECT_FALSE(
      RestoreAndSolve<Algo>(FairSnapshot(tag, {a, negative}, {a}, {b})).ok());

  // A NaN coordinate.
  const StoredPoint nan{1, 1, {std::numeric_limits<double>::quiet_NaN(), 0.0}};
  const Status bad_coord =
      RestoreAndSolve<Algo>(FairSnapshot(tag, {a, nan}, {a}, {nan}));
  EXPECT_FALSE(bad_coord.ok());
  EXPECT_NE(bad_coord.ToString().find("non-finite"), std::string::npos)
      << bad_coord.ToString();
}

TEST(SnapshotTest, Sfdm1RestoreRejectsInvalidStoredPoints) {
  ExpectRestoreRejectsInvalidPoints<Sfdm1>();
}

TEST(SnapshotTest, Sfdm2RestoreRejectsInvalidStoredPoints) {
  ExpectRestoreRejectsInvalidPoints<Sfdm2>();
}

/// An adaptive snapshot (field order of `AdaptiveStreamingDm::Snapshot`,
/// k = 2, no rungs) whose pending-point flag is `pending_valid` and whose
/// pending buffer holds `pending`.
std::string AdaptiveSnapshot(bool pending_valid, const StoredBuffer& pending) {
  SnapshotWriter writer;
  writer.WriteString(AdaptiveStreamingDm::kSnapshotTag);
  writer.WriteI32(2);  // k
  writer.WriteU64(kHandDim);
  writer.WriteU8(static_cast<uint8_t>(MetricKind::kEuclidean));
  writer.WriteDouble(kHandEpsilon);
  writer.WriteU64(8);  // max_rungs
  writer.WriteI32(1);  // retired thread slot
  writer.WriteI64(1);  // observed
  writer.WriteU64(1);  // state_version
  writer.WriteBool(pending_valid);
  WriteStoredBuffer(writer, pending);
  writer.WriteU64(0);  // rungs
  return writer.Serialize();
}

TEST(SnapshotTest, AdaptiveRestoreRejectsPendingCountMismatch) {
  const StoredPoint a{0, 0, {0.0, 0.0}};
  const StoredPoint b{1, 0, {5.0, 0.0}};
  auto restore = [](const std::string& framed) {
    auto reader = SnapshotReader::FromBytes(framed);
    EXPECT_TRUE(reader.ok());
    return AdaptiveStreamingDm::Restore(*reader).status();
  };
  EXPECT_TRUE(restore(AdaptiveSnapshot(true, {a})).ok());
  EXPECT_TRUE(restore(AdaptiveSnapshot(false, {})).ok());
  // Observe and StoredElements read the pending point whenever the flag
  // is set, so a flag without its point must not restore.
  EXPECT_FALSE(restore(AdaptiveSnapshot(true, {})).ok());
  EXPECT_FALSE(restore(AdaptiveSnapshot(false, {a})).ok());
  EXPECT_FALSE(restore(AdaptiveSnapshot(true, {a, b})).ok());
}

// --- Restore sizes nothing from unchecked header values. A well-checksummed
// snapshot whose k or dim is absurd must come back as an error, not as a
// std::length_error or std::bad_alloc from a reservation sized by it.

constexpr int32_t kHugeK = std::numeric_limits<int32_t>::max();  // 2^31 - 1
constexpr uint64_t kHugeDim = uint64_t{1} << 62;

/// An empty point buffer in `SerializePointBuffer`'s layout.
void WriteEmptyBuffer(SnapshotWriter& writer, uint64_t dim) {
  writer.WriteU64(dim);
  writer.WriteU64(0);  // ids
  writer.WriteU64(0);  // groups
  writer.WriteU64(0);  // coords
}

/// `StreamingDm::Snapshot`'s field order over the hand ladder, every rung
/// empty.
void WriteStreamingDm(SnapshotWriter& writer, int32_t k, uint64_t dim) {
  const auto ladder = GuessLadder::Create(kHandDMin, kHandDMax, kHandEpsilon);
  ASSERT_TRUE(ladder.ok());
  writer.WriteString(StreamingDm::kSnapshotTag);
  writer.WriteI32(k);
  writer.WriteU64(dim);
  writer.WriteU8(static_cast<uint8_t>(MetricKind::kEuclidean));
  writer.WriteDouble(kHandDMin);
  writer.WriteDouble(kHandDMax);
  writer.WriteDouble(kHandEpsilon);
  writer.WriteI32(1);  // retired thread slots
  writer.WriteI32(1);
  writer.WriteI64(0);  // observed
  writer.WriteU64(0);  // state_version
  writer.WriteU64(ladder->size());
  for (size_t j = 0; j < ladder->size(); ++j) WriteEmptyBuffer(writer, dim);
}

std::string StreamingDmSnapshot(int32_t k, uint64_t dim) {
  SnapshotWriter writer;
  WriteStreamingDm(writer, k, dim);
  return writer.Serialize();
}

/// `SlidingWindow::Snapshot`'s field order: window 4, stride 2, one live
/// replica, the pristine instance and the replica both StreamingDm.
std::string SlidingWindowSnapshot(int32_t k, uint64_t dim) {
  SnapshotWriter writer;
  writer.WriteString(SlidingWindow<StreamingDm>::kSnapshotTag);
  writer.WriteI64(4);  // window
  writer.WriteI64(2);  // stride
  writer.WriteI64(0);  // position
  writer.WriteU64(0);  // state_version
  WriteStreamingDm(writer, k, dim);
  writer.WriteU64(1);  // replicas
  writer.WriteI64(0);  // replica start
  WriteStreamingDm(writer, k, dim);
  return writer.Serialize();
}

/// `AdaptiveStreamingDm::Snapshot`'s field order with one empty rung.
std::string AdaptiveShapeSnapshot(int32_t k, uint64_t dim) {
  SnapshotWriter writer;
  writer.WriteString(AdaptiveStreamingDm::kSnapshotTag);
  writer.WriteI32(k);
  writer.WriteU64(dim);
  writer.WriteU8(static_cast<uint8_t>(MetricKind::kEuclidean));
  writer.WriteDouble(kHandEpsilon);
  writer.WriteU64(8);  // max_rungs
  writer.WriteI32(1);  // retired thread slot
  writer.WriteI64(0);  // observed
  writer.WriteU64(0);  // state_version
  writer.WriteBool(false);  // no pending point
  WriteEmptyBuffer(writer, dim);
  writer.WriteU64(1);  // rungs
  writer.WriteDouble(kHandDMin);
  WriteEmptyBuffer(writer, dim);
  return writer.Serialize();
}

template <typename Algo>
Status RestoreOnly(const std::string& framed) {
  auto reader = SnapshotReader::FromBytes(framed);
  if (!reader.ok()) return reader.status();
  return Algo::Restore(*reader).status();
}

template <typename Algo>
void ExpectImplausibleShapeRejected(
    std::string (*snapshot)(int32_t k, uint64_t dim)) {
  // The hand-built layout is right: a plausible shape restores.
  EXPECT_TRUE(RestoreOnly<Algo>(snapshot(2, kHandDim)).ok());
  const Status huge_k = RestoreOnly<Algo>(snapshot(kHugeK, kHandDim));
  EXPECT_FALSE(huge_k.ok());
  EXPECT_NE(huge_k.ToString().find("k must be"), std::string::npos)
      << huge_k.ToString();
  const Status huge_dim = RestoreOnly<Algo>(snapshot(2, kHugeDim));
  EXPECT_FALSE(huge_dim.ok());
  EXPECT_NE(huge_dim.ToString().find("dim must be"), std::string::npos)
      << huge_dim.ToString();
}

TEST(SnapshotTest, StreamingDmRestoreRejectsImplausibleShape) {
  ExpectImplausibleShapeRejected<StreamingDm>(StreamingDmSnapshot);
}

TEST(SnapshotTest, SlidingWindowRestoreRejectsImplausibleShape) {
  ExpectImplausibleShapeRejected<SlidingWindow<StreamingDm>>(
      SlidingWindowSnapshot);
}

TEST(SnapshotTest, AdaptiveRestoreRejectsImplausibleShape) {
  ExpectImplausibleShapeRejected<AdaptiveStreamingDm>(AdaptiveShapeSnapshot);
}

TEST(SnapshotTest, StreamingDmRestoreRejectsRungCountPastPayload) {
  // A rung count no payload could hold is refused before the ladder is
  // rebuilt or any candidate is made.
  SnapshotWriter writer;
  writer.WriteString(StreamingDm::kSnapshotTag);
  writer.WriteI32(2);
  writer.WriteU64(kHandDim);
  writer.WriteU8(static_cast<uint8_t>(MetricKind::kEuclidean));
  writer.WriteDouble(kHandDMin);
  writer.WriteDouble(kHandDMax);
  writer.WriteDouble(kHandEpsilon);
  writer.WriteI32(1);
  writer.WriteI32(1);
  writer.WriteI64(0);
  writer.WriteU64(0);
  writer.WriteU64(uint64_t{1} << 40);  // rungs
  const Status status = RestoreOnly<StreamingDm>(writer.Serialize());
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("bytes left"), std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace fdm
