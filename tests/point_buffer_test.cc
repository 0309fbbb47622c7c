#include "geo/point_buffer.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "geo/point_buffer_io.h"
#include "geo/simd/kernel_dispatch.h"
#include "util/binary_io.h"
#include "util/rng.h"

namespace fdm {
namespace {

StreamPoint Make(int64_t id, int32_t group, const std::vector<double>& c) {
  return StreamPoint{id, group, std::span<const double>(c)};
}

TEST(PointBufferTest, StartsEmpty) {
  PointBuffer buf(3, 4);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dim(), 3u);
}

TEST(PointBufferTest, AddCopiesCoordinates) {
  PointBuffer buf(2, 4);
  std::vector<double> c{1.5, -2.5};
  buf.Add(Make(7, 1, c));
  c[0] = 999.0;  // mutate the source; the buffer must hold a copy
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_DOUBLE_EQ(buf.CoordsAt(0)[0], 1.5);
  EXPECT_DOUBLE_EQ(buf.CoordsAt(0)[1], -2.5);
  EXPECT_EQ(buf.IdAt(0), 7);
  EXPECT_EQ(buf.GroupAt(0), 1);
}

TEST(PointBufferTest, MinDistanceToEmptyIsInfinity) {
  PointBuffer buf(2, 4);
  const std::vector<double> q{0.0, 0.0};
  const Metric m(MetricKind::kEuclidean);
  EXPECT_EQ(buf.MinDistanceTo(q, m), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(buf.AllAtLeast(q, m, 1e100));
}

TEST(PointBufferTest, MinDistanceFindsNearest) {
  PointBuffer buf(2, 4);
  buf.Add(Make(0, 0, {0.0, 0.0}));
  buf.Add(Make(1, 0, {10.0, 0.0}));
  buf.Add(Make(2, 0, {0.0, 3.0}));
  const Metric m(MetricKind::kEuclidean);
  const std::vector<double> q{0.0, 1.0};
  EXPECT_DOUBLE_EQ(buf.MinDistanceTo(q, m), 1.0);  // nearest is (0,0)
}

TEST(PointBufferTest, AllAtLeastThresholdSemantics) {
  PointBuffer buf(1, 4);
  buf.Add(Make(0, 0, {0.0}));
  buf.Add(Make(1, 0, {5.0}));
  const Metric m(MetricKind::kEuclidean);
  const std::vector<double> q{2.0};
  EXPECT_TRUE(buf.AllAtLeast(q, m, 2.0));    // min distance exactly 2
  EXPECT_FALSE(buf.AllAtLeast(q, m, 2.01));  // below threshold
}

TEST(PointBufferTest, RemoveSwapKeepsOthers) {
  PointBuffer buf(1, 4);
  buf.Add(Make(0, 0, {0.0}));
  buf.Add(Make(1, 1, {1.0}));
  buf.Add(Make(2, 0, {2.0}));
  buf.RemoveSwap(0);  // last element moves into position 0
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.IdAt(0), 2);
  EXPECT_EQ(buf.GroupAt(0), 0);
  EXPECT_DOUBLE_EQ(buf.CoordsAt(0)[0], 2.0);
  EXPECT_EQ(buf.IdAt(1), 1);
}

TEST(PointBufferTest, RemoveSwapLastElement) {
  PointBuffer buf(1, 4);
  buf.Add(Make(0, 0, {0.0}));
  buf.Add(Make(1, 0, {1.0}));
  buf.RemoveSwap(1);
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.IdAt(0), 0);
}

TEST(PointBufferTest, ContainsId) {
  PointBuffer buf(1, 4);
  buf.Add(Make(42, 0, {0.0}));
  EXPECT_TRUE(buf.ContainsId(42));
  EXPECT_FALSE(buf.ContainsId(43));
}

TEST(PointBufferTest, AddFromCopiesPointAndNorm) {
  PointBuffer buf(2, 2);
  buf.Add(Make(4, 1, {-3.0, 0.5}));
  buf.Add(Make(5, 3, {1.0, 2.0}));

  PointBuffer other(2, 2);
  other.AddFrom(buf, 1);
  ASSERT_EQ(other.size(), 1u);
  EXPECT_EQ(other.IdAt(0), 5);
  EXPECT_EQ(other.GroupAt(0), 3);
  EXPECT_EQ(other.CoordsAt(0), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(other.SquaredNormAt(0), buf.SquaredNormAt(1));
  const Metric m(MetricKind::kEuclidean);
  const std::vector<double> q{1.0, 0.0};
  EXPECT_DOUBLE_EQ(other.MinDistanceTo(q, m), 2.0);
}

TEST(PointBufferTest, ClearEmptiesBuffer) {
  PointBuffer buf(1, 2);
  buf.Add(Make(0, 0, {0.5}));
  buf.Clear();
  EXPECT_TRUE(buf.empty());
  const Metric m(MetricKind::kEuclidean);
  const std::vector<double> q{0.5};
  EXPECT_EQ(buf.MinDistanceTo(q, m), std::numeric_limits<double>::infinity());
}

TEST(PointBufferTest, GrowsBeyondReservedCapacity) {
  PointBuffer buf(1, 1);  // capacity is a reservation hint, not a cap
  for (int i = 0; i < 10; ++i) {
    buf.Add(Make(i, 0, {static_cast<double>(i)}));
  }
  EXPECT_EQ(buf.size(), 10u);
  EXPECT_EQ(buf.IdAt(9), 9);
}


// --- Model test: the block layout is the only coordinate store, so every
// mutation is checked against a plain point-major reference after every
// step, on every dispatch target reachable on this machine.

struct RefPoint {
  int64_t id;
  int32_t group;
  std::vector<double> coords;
};

std::vector<double> RandomCoords(Rng& rng, size_t dim) {
  std::vector<double> c(dim);
  for (double& v : c) v = rng.NextDouble(-4.0, 4.0);
  return c;
}

/// Per-point state: coordinates, cached norm, id, group.
void ExpectPointsMatch(const PointBuffer& buf, const std::vector<RefPoint>& ref,
                       const std::string& where) {
  ASSERT_EQ(buf.size(), ref.size()) << where;
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(buf.CoordsAt(i), ref[i].coords) << where << " i=" << i;
    EXPECT_EQ(buf.SquaredNormAt(i),
              internal::SquaredNorm(ref[i].coords.data(), buf.dim()))
        << where << " i=" << i;
    EXPECT_EQ(buf.IdAt(i), ref[i].id) << where << " i=" << i;
    EXPECT_EQ(buf.GroupAt(i), ref[i].group) << where << " i=" << i;
  }
}

/// Kernel scans (sealed buffers only) against a scalar `Metric` loop.
void ExpectScansMatch(Rng& rng, const PointBuffer& buf,
                      const std::vector<RefPoint>& ref,
                      const std::string& where) {
  for (const MetricKind kind : {MetricKind::kEuclidean,
                                MetricKind::kManhattan,
                                MetricKind::kAngular}) {
    const Metric metric(kind);
    const std::vector<double> q = RandomCoords(rng, buf.dim());
    double expected = std::numeric_limits<double>::infinity();
    for (const RefPoint& p : ref) {
      expected = std::min(
          expected, metric.RawDistance(q.data(), p.coords.data(), buf.dim()));
    }
    EXPECT_EQ(buf.MinRawDistanceTo(q, metric), expected)
        << where << " metric=" << MetricKindName(kind);
  }
}

void RunModel(uint64_t seed, size_t dim) {
  Rng rng(seed);
  int64_t next_id = 0;
  auto fresh = [&]() {
    return RefPoint{next_id++, static_cast<int32_t>(rng.NextBounded(5)),
                    RandomCoords(rng, dim)};
  };
  // The AddFrom source: a second buffer with its own reference.
  PointBuffer source(dim, 0);
  std::vector<RefPoint> source_ref;
  for (int i = 0; i < 13; ++i) {
    source_ref.push_back(fresh());
    const RefPoint& p = source_ref.back();
    source.Add(Make(p.id, p.group, p.coords));
  }

  PointBuffer buf(dim, 4);
  std::vector<RefPoint> ref;
  for (int step = 0; step < 300; ++step) {
    const std::string where = "seed=" + std::to_string(seed) +
                              " dim=" + std::to_string(dim) +
                              " step=" + std::to_string(step);
    const uint64_t op = rng.NextBounded(100);
    if (op < 35) {
      ref.push_back(fresh());
      buf.Add(Make(ref.back().id, ref.back().group, ref.back().coords));
    } else if (op < 55) {
      // A deferred-padding run: per-point reads hold before the seal.
      const uint64_t run = 1 + rng.NextBounded(11);
      for (uint64_t r = 0; r < run; ++r) {
        ref.push_back(fresh());
        buf.AddDeferPadding(
            Make(ref.back().id, ref.back().group, ref.back().coords));
      }
      ExpectPointsMatch(buf, ref, where + " unsealed");
      buf.SealPadding();
    } else if (op < 80) {
      if (ref.empty()) continue;
      const size_t i = rng.NextBounded(ref.size());
      ref[i] = ref.back();
      ref.pop_back();
      buf.RemoveSwap(i);
    } else if (op < 97) {
      const size_t i = rng.NextBounded(source_ref.size());
      ref.push_back(source_ref[i]);
      buf.AddFrom(source, i);
    } else {
      ref.clear();
      buf.Clear();
    }
    ExpectPointsMatch(buf, ref, where);
    ExpectScansMatch(rng, buf, ref, where);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(PointBufferTest, RandomMutationsMatchPointMajorModel) {
  for (const std::string_view target : simd::AvailableKernelTargets()) {
    ASSERT_TRUE(simd::internal::ForceKernelTargetForTest(target));
    for (const uint64_t seed : {1u, 2u, 3u}) {
      for (const size_t dim : {1u, 3u, 8u, 11u}) {
        SCOPED_TRACE(std::string(target));
        RunModel(seed, dim);
      }
    }
  }
  ASSERT_TRUE(simd::internal::ForceKernelTargetForTest(""));
}

// --- Golden bytes: the snapshot layout of a buffer is pinned to
//   dim u64 | count u64, ids i64… | count u64, groups i32… |
//   count u64, point-major coordinates f64…
// whatever the in-memory layout; sizes straddle the 8-lane block edge.

template <typename T>
void AppendRaw(std::string& out, T v) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  out.append(bytes, sizeof(T));
}

/// The payload bytes of a snapshot that holds only `buf`.
std::string SerializedPayload(const PointBuffer& buf) {
  SnapshotWriter writer;
  SerializePointBuffer(writer, buf);
  const std::string framed = writer.Serialize();
  // Frame: magic (8) | version u32 | payload size u64 | payload | checksum.
  return framed.substr(8 + 4 + 8, writer.PayloadBytes());
}

TEST(PointBufferTest, SerializedBytesArePointMajor) {
  constexpr size_t kDim = 3;
  for (const size_t q : {0u, 1u, 2u}) {
    for (const size_t r : {0u, 1u, 7u}) {
      const size_t n = 8 * q + r;
      PointBuffer buf(kDim, n);
      std::string expected;
      AppendRaw<uint64_t>(expected, kDim);
      AppendRaw<uint64_t>(expected, n);
      for (size_t i = 0; i < n; ++i) AppendRaw<int64_t>(expected, 100 + i);
      AppendRaw<uint64_t>(expected, n);
      for (size_t i = 0; i < n; ++i) {
        AppendRaw<int32_t>(expected, static_cast<int32_t>(i % 3));
      }
      AppendRaw<uint64_t>(expected, n * kDim);
      for (size_t i = 0; i < n; ++i) {
        std::vector<double> c(kDim);
        for (size_t d = 0; d < kDim; ++d) {
          c[d] = static_cast<double>(i) + 0.25 * static_cast<double>(d) - 1.5;
          AppendRaw<double>(expected, c[d]);
        }
        buf.Add(Make(static_cast<int64_t>(100 + i), static_cast<int32_t>(i % 3),
                     c));
      }
      ASSERT_EQ(SerializedPayload(buf), expected) << "n=" << n;

      // And the bytes restore to the same points, ready to scan.
      SnapshotWriter writer;
      SerializePointBuffer(writer, buf);
      auto reader = SnapshotReader::FromBytes(writer.Serialize());
      ASSERT_TRUE(reader.ok());
      PointBuffer restored(kDim, 0);
      DeserializePointBuffer(reader.value(), restored);
      ASSERT_TRUE(reader.value().ok()) << reader.value().status().ToString();
      ASSERT_EQ(restored.size(), n);
      const Metric m(MetricKind::kEuclidean);
      const std::vector<double> probe{0.1, -0.2, 0.3};
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(restored.CoordsAt(i), buf.CoordsAt(i)) << "n=" << n;
        EXPECT_EQ(restored.SquaredNormAt(i), buf.SquaredNormAt(i));
        EXPECT_EQ(restored.IdAt(i), buf.IdAt(i));
        EXPECT_EQ(restored.GroupAt(i), buf.GroupAt(i));
      }
      EXPECT_EQ(restored.MinRawDistanceTo(probe, m),
                buf.MinRawDistanceTo(probe, m));
    }
  }
}

/// Restores `buf`'s bytes into a fresh buffer under `groups`; returns the
/// reader status.
Status RestoreWithGroups(const PointBuffer& buf, GroupRange groups) {
  SnapshotWriter writer;
  SerializePointBuffer(writer, buf);
  auto reader = SnapshotReader::FromBytes(writer.Serialize());
  if (!reader.ok()) return reader.status();
  PointBuffer restored(buf.dim(), 0);
  DeserializePointBuffer(reader.value(), restored, groups);
  return reader.value().status();
}

TEST(PointBufferTest, DeserializeRejectsOutOfRangeGroupsAndNonFinite) {
  PointBuffer buf(2, 4);
  buf.Add(Make(0, 0, {0.0, 1.0}));
  buf.Add(Make(1, 2, {2.0, 3.0}));
  EXPECT_TRUE(RestoreWithGroups(buf, {}).ok());
  EXPECT_TRUE(RestoreWithGroups(buf, {0, 2}).ok());
  EXPECT_FALSE(RestoreWithGroups(buf, {0, 1}).ok());
  EXPECT_FALSE(RestoreWithGroups(buf, {2, 2}).ok());

  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    PointBuffer poisoned(2, 4);
    poisoned.Add(Make(0, 0, {0.0, 1.0}));
    poisoned.Add(Make(1, 0, {bad, 3.0}));
    const Status status = RestoreWithGroups(poisoned, {});
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("non-finite"), std::string::npos)
        << status.ToString();
  }
}

}  // namespace
}  // namespace fdm
