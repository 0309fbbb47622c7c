#include "service/sink_spec.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace fdm {
namespace {

TEST(SinkSpecTest, ParsesFullSpec) {
  auto spec = SinkSpec::Parse(
      "algo=sfdm2 dim=4 quotas=2,2,3 metric=manhattan eps=0.05 dmin=0.01 "
      "dmax=50");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->algo, "sfdm2");
  EXPECT_EQ(spec->dim, 4u);
  EXPECT_EQ(spec->quotas, (std::vector<int>{2, 2, 3}));
  EXPECT_EQ(spec->metric, MetricKind::kManhattan);
  EXPECT_DOUBLE_EQ(spec->epsilon, 0.05);
  EXPECT_DOUBLE_EQ(spec->d_min, 0.01);
  EXPECT_DOUBLE_EQ(spec->d_max, 50);
}

// Thread counts left the spec for the process fan-out width; SPEC files
// written before that still carry `threads=` / `solve_threads=`. Both keys
// are accepted and ignored (the spec equals the one without them and the
// canonical form drops them), and their old validation still applies.
TEST(SinkSpecTest, RetiredThreadKeysAreAcceptedAndIgnored) {
  const std::string base = "algo=sfdm2 dim=4 quotas=2,2 dmin=0.1 dmax=50";
  auto plain = SinkSpec::Parse(base);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  for (const std::string extra :
       {" threads=4", " solve_threads=2", " threads=4 solve_threads=2",
        " threads=0 solve_threads=0"}) {
    auto spec = SinkSpec::Parse(base + extra);
    ASSERT_TRUE(spec.ok()) << extra << ": " << spec.status().ToString();
    EXPECT_EQ(spec->ToString(), plain->ToString()) << extra;
    EXPECT_EQ(spec->ToString().find("threads"), std::string::npos) << extra;
    EXPECT_TRUE(spec->MakeSink().ok()) << extra;
  }
  EXPECT_FALSE(SinkSpec::Parse(base + " solve_threads=-1").ok());
  EXPECT_FALSE(SinkSpec::Parse(base + " threads=x").ok());
  EXPECT_FALSE(SinkSpec::Parse(base + " solve_threads=2.5").ok());
}

TEST(SinkSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(SinkSpec::Parse("").ok());                    // no algo/dim
  EXPECT_FALSE(SinkSpec::Parse("algo=sfdm2").ok());          // no dim
  EXPECT_FALSE(SinkSpec::Parse("dim=2 k=3").ok());           // no algo
  EXPECT_FALSE(SinkSpec::Parse("algo=sfdm2 dim=x").ok());    // bad int
  EXPECT_FALSE(SinkSpec::Parse("algo=sfdm2 dim=2 eps=abc").ok());
  EXPECT_FALSE(SinkSpec::Parse("algo=sfdm2 dim=2 bogus=1").ok());
  EXPECT_FALSE(SinkSpec::Parse("algo=sfdm2 dim=2 metric=cosine").ok());
  EXPECT_FALSE(SinkSpec::Parse("justaword").ok());
}

TEST(SinkSpecTest, MakeSinkRequiresAlgoSpecificKeys) {
  // streaming_dm needs k; sfdm2 needs quotas; sliding_window needs window.
  EXPECT_FALSE(
      MakeSinkFromSpec("algo=streaming_dm dim=2 dmin=0.1 dmax=10").ok());
  EXPECT_FALSE(MakeSinkFromSpec("algo=sfdm2 dim=2 dmin=0.1 dmax=10").ok());
  EXPECT_FALSE(MakeSinkFromSpec(
                   "algo=sliding_window dim=2 k=3 dmin=0.1 dmax=10")
                   .ok());
  EXPECT_FALSE(MakeSinkFromSpec("algo=nope dim=2 k=3").ok());
}

TEST(SinkSpecTest, EveryAlgoBuildsAndIngests) {
  BlobsOptions opt;
  opt.n = 200;
  opt.num_groups = 2;
  opt.seed = 5;
  const Dataset ds = MakeBlobs(opt);
  const DistanceBounds b = ComputeDistanceBoundsExact(ds);
  const std::string bounds = " dmin=" + std::to_string(b.min) +
                             " dmax=" + std::to_string(b.max);
  const std::vector<std::string> specs = {
      "algo=streaming_dm dim=2 k=4" + bounds,
      "algo=sfdm1 dim=2 quotas=2,2" + bounds,
      "algo=sfdm2 dim=2 quotas=2,2" + bounds,
      "algo=adaptive dim=2 k=4",
      "algo=sharded dim=2 k=4 shards=2" + bounds,
      "algo=sliding_window dim=2 k=4 window=100 checkpoints=2" + bounds,
  };
  for (const std::string& text : specs) {
    auto sink = MakeSinkFromSpec(text);
    ASSERT_TRUE(sink.ok()) << text << ": " << sink.status().ToString();
    for (size_t i = 0; i < ds.size(); ++i) (*sink)->Observe(ds.At(i));
    EXPECT_EQ((*sink)->ObservedElements(), static_cast<int64_t>(ds.size()))
        << text;
    const auto solution = (*sink)->Solve();
    ASSERT_TRUE(solution.ok()) << text << ": "
                               << solution.status().ToString();
    EXPECT_EQ(solution->points.size(), 4u) << text;
  }
}

TEST(SinkSpecTest, ToStringRoundTrips) {
  auto spec = SinkSpec::Parse(
      "algo=sliding_window dim=3 k=5 dmin=0.5 dmax=20 window=400 "
      "checkpoints=8");
  ASSERT_TRUE(spec.ok());
  auto reparsed = SinkSpec::Parse(spec->ToString());
  ASSERT_TRUE(reparsed.ok()) << spec->ToString();
  EXPECT_EQ(reparsed->algo, spec->algo);
  EXPECT_EQ(reparsed->dim, spec->dim);
  EXPECT_EQ(reparsed->k, spec->k);
  EXPECT_EQ(reparsed->window, spec->window);
  EXPECT_EQ(reparsed->checkpoints, spec->checkpoints);
}

TEST(SinkSpecTest, DedupKeyParsesAndRoundTrips) {
  auto off = SinkSpec::Parse("algo=streaming_dm dim=2 k=4 dmin=0.1 dmax=9");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->dedup);  // default off
  EXPECT_EQ(off->ToString().find("dedup"), std::string::npos);

  auto on = SinkSpec::Parse(
      "algo=streaming_dm dim=2 k=4 dmin=0.1 dmax=9 dedup=on");
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_TRUE(on->dedup);
  auto reparsed = SinkSpec::Parse(on->ToString());
  ASSERT_TRUE(reparsed.ok()) << on->ToString();
  EXPECT_TRUE(reparsed->dedup);

  auto explicit_off = SinkSpec::Parse(
      "algo=streaming_dm dim=2 k=4 dmin=0.1 dmax=9 dedup=off");
  ASSERT_TRUE(explicit_off.ok());
  EXPECT_FALSE(explicit_off->dedup);

  EXPECT_FALSE(
      SinkSpec::Parse("algo=streaming_dm dim=2 k=4 dedup=yes").ok());
}

}  // namespace
}  // namespace fdm
