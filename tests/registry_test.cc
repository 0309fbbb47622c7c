#include "harness/registry.h"

#include <memory>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "util/thread_pool.h"

namespace fdm {
namespace {

Dataset TestData(int m, uint64_t seed = 21, size_t n = 600) {
  BlobsOptions opt;
  opt.n = n;
  opt.num_groups = m;
  opt.seed = seed;
  return MakeBlobs(opt);
}

RunConfig ConfigFor(const Dataset& ds, AlgorithmKind algo, int k) {
  RunConfig config;
  config.algorithm = algo;
  config.constraint = EqualRepresentation(k, ds.num_groups()).value();
  config.epsilon = 0.1;
  config.bounds = BoundsForExperiments(ds);
  return config;
}

TEST(AlgorithmRegistryTest, AllBuiltinsRegistered) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Instance();
  for (const AlgorithmKind kind :
       {AlgorithmKind::kGmm, AlgorithmKind::kFairSwap, AlgorithmKind::kFairFlow,
        AlgorithmKind::kFairGmm, AlgorithmKind::kSfdm1, AlgorithmKind::kSfdm2,
        AlgorithmKind::kStreamingDm, AlgorithmKind::kSharded,
        AlgorithmKind::kSlidingWindow}) {
    const AlgorithmEntry* entry = registry.Find(kind);
    ASSERT_NE(entry, nullptr);
    EXPECT_FALSE(entry->name.empty());
    if (entry->streaming) {
      EXPECT_TRUE(static_cast<bool>(entry->make_sink));
    } else {
      EXPECT_TRUE(static_cast<bool>(entry->solve));
    }
  }
  EXPECT_EQ(registry.Kinds().size(), 9u);
}

TEST(AlgorithmRegistryTest, NewKindsAreNamed) {
  EXPECT_EQ(AlgorithmName(AlgorithmKind::kStreamingDm), "StreamingDM");
  EXPECT_EQ(AlgorithmName(AlgorithmKind::kSharded), "ShardedDM");
  EXPECT_EQ(AlgorithmName(AlgorithmKind::kSlidingWindow), "SlidingWindowDM");
}

TEST(AlgorithmRegistryTest, FactoriesProduceWorkingSinks) {
  const Dataset ds = TestData(2);
  const RunConfig config = ConfigFor(ds, AlgorithmKind::kSfdm1, 6);
  const AlgorithmEntry* entry =
      AlgorithmRegistry::Instance().Find(AlgorithmKind::kSfdm1);
  ASSERT_NE(entry, nullptr);
  auto sink = entry->make_sink(ds, config);
  ASSERT_TRUE(sink.ok());
  for (size_t i = 0; i < ds.size(); ++i) (*sink)->Observe(ds.At(i));
  const auto solution = (*sink)->Solve();
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_EQ(solution->points.size(), 6u);
}

TEST(RunAlgorithmRegistryTest, NewStreamingKindsProduceKElements) {
  const Dataset ds = TestData(2, 22, 1200);
  for (const AlgorithmKind kind :
       {AlgorithmKind::kStreamingDm, AlgorithmKind::kSharded,
        AlgorithmKind::kSlidingWindow}) {
    const RunResult r = RunAlgorithm(ds, ConfigFor(ds, kind, 8));
    ASSERT_TRUE(r.ok) << AlgorithmName(kind) << ": " << r.error;
    EXPECT_EQ(r.selected_ids.size(), 8u) << AlgorithmName(kind);
    EXPECT_GT(r.diversity, 0.0);
    EXPECT_GT(r.stream_time_sec, 0.0);
    EXPECT_LT(r.stored_elements, ds.size());
  }
}

TEST(RunAlgorithmRegistryTest, SlidingWindowKindHonorsWindowConfig) {
  const Dataset ds = TestData(1, 26, 1500);
  RunConfig config = ConfigFor(ds, AlgorithmKind::kSlidingWindow, 6);
  config.window_size = 300;
  config.window_checkpoints = 3;
  const RunResult r = RunAlgorithm(ds, config);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.selected_ids.size(), 6u);
  // Every selected element must come from the last `window_size` stream
  // positions — but ids are dataset rows, not stream positions, so just
  // check the count and that the windowed sink kept bounded state.
  EXPECT_LT(r.stored_elements, ds.size());
}

TEST(RunAlgorithmRegistryTest, BatchedIngestionMatchesPerElement) {
  // The harness-level guarantee: flipping the batch size or the process
  // fan-out width changes only the cost profile, never the output.
  const Dataset ds = TestData(3, 23, 900);
  RunConfig config = ConfigFor(ds, AlgorithmKind::kSfdm2, 9);
  config.permutation_seed = 4;
  const RunResult per_element = RunAlgorithm(ds, config);
  config.batch_size = 128;
  SetFanOutWidth(2);
  const RunResult batched = RunAlgorithm(ds, config);
  SetFanOutWidth(1);
  ASSERT_TRUE(per_element.ok) << per_element.error;
  ASSERT_TRUE(batched.ok) << batched.error;
  EXPECT_EQ(per_element.selected_ids, batched.selected_ids);
  EXPECT_DOUBLE_EQ(per_element.diversity, batched.diversity);
  EXPECT_EQ(per_element.stored_elements, batched.stored_elements);
}

TEST(RunAlgorithmRegistryTest, ShardedKindHonorsNumShards) {
  const Dataset ds = TestData(2, 24, 1000);
  RunConfig config = ConfigFor(ds, AlgorithmKind::kSharded, 6);
  config.num_shards = 2;
  const RunResult two = RunAlgorithm(ds, config);
  config.num_shards = 8;
  const RunResult eight = RunAlgorithm(ds, config);
  ASSERT_TRUE(two.ok) << two.error;
  ASSERT_TRUE(eight.ok) << eight.error;
  // More shards store more (num_shards × O(k log∆/ε) candidates).
  EXPECT_GT(eight.stored_elements, two.stored_elements);
}

TEST(AlgorithmRegistryTest, ScenariosPlugInWithoutTouchingTheHarness) {
  // A scenario override: re-register kSharded with a different default
  // shard count, run through the unchanged harness, then restore.
  AlgorithmRegistry& registry = AlgorithmRegistry::Instance();
  const AlgorithmEntry original = *registry.Find(AlgorithmKind::kSharded);

  AlgorithmEntry scenario = original;
  scenario.name = "ShardedDM/16";
  scenario.make_sink = [&original](const Dataset& ds,
                                   const RunConfig& config) {
    RunConfig wide = config;
    wide.num_shards = 16;
    return original.make_sink(ds, wide);
  };
  registry.Register(AlgorithmKind::kSharded, scenario);

  const Dataset ds = TestData(2, 25, 2000);
  const RunResult r = RunAlgorithm(ds, ConfigFor(ds, AlgorithmKind::kSharded, 5));
  EXPECT_EQ(AlgorithmName(AlgorithmKind::kSharded), "ShardedDM/16");
  registry.Register(AlgorithmKind::kSharded, original);

  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.selected_ids.size(), 5u);
  EXPECT_EQ(AlgorithmName(AlgorithmKind::kSharded), "ShardedDM");
}

}  // namespace
}  // namespace fdm
