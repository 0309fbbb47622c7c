// The query-path determinism contract (`FanOut`, util/thread_pool.h): a
// Solve() that fans its per-rung / per-shard / per-candidate
// post-processing out over the shared pool must be bit-identical to the
// sequential solve — for every sink kind, every reachable kernel dispatch
// target, and every process fan-out width — including across a
// mid-stream snapshot/restore and when SFDM-2 reuses warm rung memos
// after a partial invalidation. The ingest-side counterpart of this
// contract lives in stream_sink_batch_test.cc; the cross-target
// counterpart in incremental_solve_test.cc.

#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/sink_snapshot.h"
#include "core/stream_sink.h"
#include "data/synthetic.h"
#include "geo/simd/kernel_dispatch.h"
#include "service/sink_spec.h"
#include "util/binary_io.h"
#include "util/thread_pool.h"

namespace fdm {
namespace {

Dataset TestData(size_t n = 48) {
  BlobsOptions opt;
  opt.n = n;
  opt.num_groups = 2;  // SFDM1 requires exactly two groups
  opt.seed = 77;
  return MakeBlobs(opt);
}

/// Spec strings for all six sink kinds over `ds`, built through `SinkSpec`
/// as the serving side builds them.
std::vector<std::string> AllKindSpecs(const Dataset& ds) {
  const DistanceBounds bounds = ComputeDistanceBoundsExact(ds);
  std::ostringstream common;
  common << " dim=" << ds.dim() << " dmin=" << bounds.min
         << " dmax=" << bounds.max;
  const std::string tail = common.str();
  return {
      "algo=streaming_dm k=4" + tail,
      "algo=sfdm1 quotas=2,2" + tail,
      "algo=sfdm2 quotas=2,2" + tail,
      "algo=adaptive k=4 dim=" + std::to_string(ds.dim()),
      "algo=sharded k=4 shards=3" + tail,
      "algo=sliding_window k=4 window=40 checkpoints=3" + tail,
  };
}

void ExpectSameOutcome(const Result<Solution>& a, const Result<Solution>& b,
                       const std::string& what) {
  ASSERT_EQ(a.ok(), b.ok()) << what << ": " << a.status().ToString()
                            << " vs " << b.status().ToString();
  if (!a.ok()) {
    EXPECT_EQ(a.status().code(), b.status().code()) << what;
    return;
  }
  EXPECT_EQ(a->Ids(), b->Ids()) << what;
  EXPECT_EQ(a->diversity, b->diversity) << what;
  EXPECT_EQ(a->mu, b->mu) << what;
  ASSERT_EQ(a->points.size(), b->points.size()) << what;
  for (size_t i = 0; i < a->points.size(); ++i) {
    EXPECT_EQ(a->points.GroupAt(i), b->points.GroupAt(i)) << what;
    for (size_t d = 0; d < a->points.dim(); ++d) {
      EXPECT_EQ(a->points.CoordsAt(i)[d], b->points.CoordsAt(i)[d])
          << what << " point " << i << " dim " << d;
    }
  }
}

std::unique_ptr<StreamSink> MakeSink(const std::string& spec) {
  auto sink = MakeSinkFromSpec(spec);
  EXPECT_TRUE(sink.ok()) << spec << ": " << sink.status().ToString();
  return sink.ok() ? std::move(sink.value()) : nullptr;
}

/// `sink.Solve()` at process width `width`; the width is back at 1 after.
Result<Solution> SolveAtWidth(const StreamSink& sink, int width) {
  SetFanOutWidth(width);
  Result<Solution> solution = sink.Solve();
  SetFanOutWidth(1);
  return solution;
}

/// Snapshot + tag-dispatched restore of a polymorphic sink.
Result<std::unique_ptr<StreamSink>> RoundTrip(const StreamSink& sink) {
  SnapshotWriter writer;
  if (Status s = sink.Snapshot(writer); !s.ok()) return s;
  auto reader = SnapshotReader::FromBytes(writer.Serialize());
  if (!reader.ok()) return reader.status();
  return RestoreSink(*reader);
}

// The tentpole matrix: six sink kinds × every reachable kernel target ×
// width {1, 2, 4, 0(=hardware)} — the parallel Solve() bit-identical to
// the sequential one at every stream prefix sampled, with the parallel
// sink additionally swapped for a snapshot-restored copy at the midpoint.
TEST(ParallelSolveTest, BitIdenticalAcrossKindsTargetsAndWidths) {
  const Dataset ds = TestData();
  for (const std::string& base : AllKindSpecs(ds)) {
    for (const std::string_view target : simd::AvailableKernelTargets()) {
      ASSERT_TRUE(simd::internal::ForceKernelTargetForTest(target));
      for (const int width : {1, 2, 4, 0}) {
        const std::string what = base + " [" + std::string(target) +
                                 " width=" + std::to_string(width) + "]";
        auto sequential = MakeSink(base);
        auto parallel = MakeSink(base);
        ASSERT_NE(sequential, nullptr);
        ASSERT_NE(parallel, nullptr);
        for (size_t i = 0; i < ds.size(); ++i) {
          sequential->Observe(ds.At(i));
          parallel->Observe(ds.At(i));
          if (i + 1 == ds.size() / 2) {
            // Mid-stream durability cycle of the *parallel* sink.
            auto restored = RoundTrip(*parallel);
            ASSERT_TRUE(restored.ok()) << what << ": "
                                       << restored.status().ToString();
            EXPECT_EQ((*restored)->StateVersion(), parallel->StateVersion())
                << what;
            parallel = std::move(restored.value());
          }
          // Query at a handful of prefixes (every prefix would be O(n)
          // solves per cell across a large matrix).
          if ((i + 1) % 12 == 0 || i + 1 == ds.size()) {
            ExpectSameOutcome(SolveAtWidth(*sequential, 1),
                              SolveAtWidth(*parallel, width),
                              what + " prefix " + std::to_string(i + 1));
          }
        }
        EXPECT_EQ(sequential->StateVersion(), parallel->StateVersion())
            << what;
        EXPECT_EQ(sequential->StoredElements(), parallel->StoredElements())
            << what;
      }
    }
    ASSERT_TRUE(simd::internal::ForceKernelTargetForTest(""));
  }
}

// SFDM-2's warm-memo path under parallel solve: a second Solve() after a
// partial rung invalidation recomputes only the dirty rungs (on pool
// workers) and reuses the warm memos for the rest — the result must still
// match both the sequential sink and a fresh replay.
TEST(ParallelSolveTest, Sfdm2WarmMemoReuseAfterPartialInvalidation) {
  const Dataset ds = TestData(60);
  const DistanceBounds bounds = ComputeDistanceBoundsExact(ds);
  std::ostringstream spec;
  spec << "algo=sfdm2 quotas=2,2 dim=" << ds.dim() << " dmin=" << bounds.min
       << " dmax=" << bounds.max;
  auto sequential = MakeSink(spec.str());
  auto parallel = MakeSink(spec.str());
  ASSERT_NE(sequential, nullptr);
  ASSERT_NE(parallel, nullptr);

  const size_t warm_prefix = ds.size() / 2;
  for (size_t i = 0; i < warm_prefix; ++i) {
    sequential->Observe(ds.At(i));
    parallel->Observe(ds.At(i));
  }
  // Warm every rung memo in both sinks.
  ExpectSameOutcome(SolveAtWidth(*sequential, 1), SolveAtWidth(*parallel, 4),
                    "warm solve");

  // The stream tail typically lands in a subset of rungs (near-saturated
  // candidates reject), so this is a *partial* invalidation: some memos go
  // stale, the rest stay warm and must be reused as-is.
  for (size_t i = warm_prefix; i < ds.size(); ++i) {
    sequential->Observe(ds.At(i));
    parallel->Observe(ds.At(i));
  }
  const Result<Solution> expected = SolveAtWidth(*sequential, 1);
  ExpectSameOutcome(expected, SolveAtWidth(*parallel, 4),
                    "post-invalidation solve");

  // Fresh cold replay cross-check: memo reuse changed nothing.
  auto fresh = MakeSink(spec.str());
  ASSERT_NE(fresh, nullptr);
  for (size_t i = 0; i < ds.size(); ++i) fresh->Observe(ds.At(i));
  ExpectSameOutcome(expected, SolveAtWidth(*fresh, 4), "fresh cold replay");
}

// Changing the width between queries is a pure latency setting: it must
// not advance the state version (a version-keyed SolveCache keeps serving
// its memoized solution) and the next Solve() is bit-identical.
TEST(ParallelSolveTest, WidthChangeDoesNotAdvanceStateVersion) {
  const Dataset ds = TestData();
  for (const std::string& base : AllKindSpecs(ds)) {
    auto sink = MakeSink(base);
    ASSERT_NE(sink, nullptr);
    for (size_t i = 0; i < ds.size(); ++i) sink->Observe(ds.At(i));
    const Result<Solution> before = sink->Solve();
    const uint64_t version = sink->StateVersion();
    ExpectSameOutcome(before, SolveAtWidth(*sink, 4), base + " at width 4");
    EXPECT_EQ(sink->StateVersion(), version) << base;
  }
}

}  // namespace
}  // namespace fdm
