// Conformance suite for the serving protocol's request-dispatch core
// (src/net/dispatch.h): framing invariants under malformed, truncated,
// and pipelined input; byte-identical replies between the stdin and TCP
// transports; regression tests for the protocol-hardening fixes (checked
// --metrics-dump parse, non-finite coordinate rejection, malformed last
// coordinate rejection, trailing-garbage
// rejection on no-payload verbs, out-of-range group rejection before the
// WAL); and reopening a session directory written before thread counts
// left the spec and the snapshot.

#include "net/dispatch.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "net/net_client.h"
#include "net/tcp_server.h"
#include "obs/metrics_dump.h"
#include "replica/replica_manager.h"
#include "service/session_layout.h"
#include "service/session_manager.h"
#include "util/binary_io.h"
#include "util/thread_pool.h"

namespace fdm {
namespace {

Dataset TestData(size_t n = 120, uint64_t seed = 71) {
  BlobsOptions opt;
  opt.n = n;
  opt.num_groups = 2;
  opt.seed = seed;
  return MakeBlobs(opt);
}

std::string SpecFor(const Dataset& ds) {
  const DistanceBounds b = ComputeDistanceBoundsExact(ds);
  return "algo=sfdm2 dim=2 quotas=2,2 dmin=" + std::to_string(b.min) +
         " dmax=" + std::to_string(b.max);
}

/// `OBSERVE <session> <id> <group> <coords...>` for `point`.
std::string ObserveLine(const std::string& session, const StreamPoint& point) {
  std::string line = "OBSERVE " + session + " " + std::to_string(point.id) +
                     " " + std::to_string(point.group);
  for (const double c : point.coords) line += " " + std::to_string(c);
  return line + "\n";
}

/// Drives the dispatcher exactly like the stdin transport and returns
/// everything it wrote.
std::string RunStdin(net::RequestDispatcher& dispatcher,
                     const std::string& script) {
  std::istringstream in(script);
  std::ostringstream out;
  net::ServeLines(dispatcher, in, out);
  return out.str();
}

/// Response frames the TCP transport will produce for `script`: one per
/// non-blank request, where a request consumes its announced payload
/// lines. Uses the dispatcher's own classifier so the count can never
/// drift from the server's framing rules.
size_t CountReplies(net::RequestDispatcher& dispatcher,
                    const std::string& script) {
  size_t count = 0;
  std::istringstream in(script);
  std::string line;
  while (std::getline(in, line)) {
    const net::RequestInfo info = dispatcher.Classify(line);
    if (info.verb.empty()) continue;
    ++count;
    for (int64_t i = 0; i < info.payload_lines && std::getline(in, line);
         ++i) {
    }
    if (info.verb == "QUIT") break;
  }
  return count;
}

class ServeProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/fdm_serve_protocol_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::unique_ptr<SessionManager> NewManager(const std::string& sub) {
    SessionManagerOptions options;
    options.root_dir = root_ + "/" + sub;
    auto manager = SessionManager::Create(options);
    EXPECT_TRUE(manager.ok()) << manager.status().ToString();
    return std::move(manager.value());
  }

  std::string root_;
};

// ---------------------------------------------------------------------------
// Byte identity: the same script through the stdin transport and as one
// pipelined TCP frame must yield byte-identical reply streams. Two fresh,
// identically-seeded server states keep the comparison honest (running
// one script twice against one state would mutate it in between).
// ---------------------------------------------------------------------------

class ByteIdentityTest : public ServeProtocolTest {
 protected:
  void Check(const std::string& script) {
    auto stdin_manager = NewManager("stdin");
    auto tcp_manager = NewManager("tcp");
    net::RequestDispatcher stdin_dispatcher(stdin_manager.get(),
                                            root_ + "/stdin");
    net::RequestDispatcher tcp_dispatcher(tcp_manager.get(), root_ + "/tcp");
    const std::string expected = RunStdin(stdin_dispatcher, script);

    auto server = net::TcpServer::Start(&tcp_dispatcher, {});
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = net::NetClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client->Send(script).ok());
    std::string actual;
    const size_t frames = CountReplies(stdin_dispatcher, script);
    for (size_t i = 0; i < frames; ++i) {
      auto reply = client->Recv();
      ASSERT_TRUE(reply.ok()) << "frame " << i << ": "
                              << reply.status().ToString();
      actual += *reply;
    }
    EXPECT_EQ(actual, expected);
  }
};

TEST_F(ByteIdentityTest, HappyPathAndQueries) {
  const Dataset ds = TestData();
  std::string script = "CREATE s " + SpecFor(ds) + "\n";
  for (size_t i = 0; i < 40; ++i) {
    const StreamPoint p = ds.At(i);
    script += "OBSERVE s " + std::to_string(p.id) + " " +
              std::to_string(p.group);
    for (const double c : p.coords) script += " " + std::to_string(c);
    script += "\n";
  }
  script += "OBSERVEB s 2\n90001 0 0.25 0.5\n90002 1 7.5 3.25\n";
  script += "STATS s\n";  // before any SOLVE: no timing samples, so
                          // the reply is deterministic across runs
  script += "SOLVE s\nSOLVE s\nLIST\n\nQUIT\n";
  Check(script);
}

TEST_F(ByteIdentityTest, ErrorPathsStayInFraming) {
  const Dataset ds = TestData();
  std::string script = "CREATE s " + SpecFor(ds) + "\n";
  // Every malformed request below must consume exactly its own input;
  // the LIST at the end only parses as a command if each drain worked.
  script += "OBSERVE s\n";                       // missing point entirely
  script += "OBSERVE s 1 0\n";                   // no coordinates
  script += "OBSERVE s 1 0 2.0 garbage\n";       // garbage mid-line
  script += "OBSERVEB s\n";                      // missing count
  script += "OBSERVEB s -3\n";                   // negative count
  script += "OBSERVEB s 2 junk\n1 0 1 2\n2 0 3 4\n";  // trailing garbage:
                                                      // both lines drained
  script += "OBSERVEB s 2\nbad payload line\n7 0 1 2\n";  // bad first line,
                                                          // second drained
  script += "OBSERVEB s 2\n8 0 1 2\n9 0 3 nope\n";  // bad second line
  script += "SOLVE ghost\n";                     // unknown session
  script += "SNAPSHOT ghost\n";
  script += "FROB s\n";                          // unknown verb
  script += "REPLICA s\nLAG s\n";                // follower verbs on primary
  script += "CREATE\n";                          // missing name
  script += "LIST\nQUIT\n";
  Check(script);
}

TEST_F(ByteIdentityTest, TruncatedBatchEndsLikeEof) {
  // A request may not span frames: a frame ending mid-batch answers
  // exactly like stdin hitting EOF mid-batch.
  const Dataset ds = TestData();
  const std::string script =
      "CREATE s " + SpecFor(ds) + "\nOBSERVEB s 3\n10 0 1 2\n";
  Check(script);
}

TEST_F(ByteIdentityTest, FuzzedGarbageLines) {
  // Deterministic junk: no crashes, and both transports agree byte for
  // byte on every reply. (xorshift instead of a seeded <random> engine so
  // the byte stream is fixed forever.)
  std::string script;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  const std::string alphabet =
      "AZaz09 .,-+eE\t~#OBSERVE SOLVE \xff\x01";
  for (int i = 0; i < 200; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const size_t len = state % 23;
    for (size_t j = 0; j < len; ++j) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      script += alphabet[state % alphabet.size()];
    }
    script += '\n';
  }
  script += "LIST\nQUIT\n";
  Check(script);
}

// ---------------------------------------------------------------------------
// Regression: --metrics-dump period parse (used to call std::stoi and
// crash with an uncaught std::out_of_range on a 20-digit period).
// ---------------------------------------------------------------------------

TEST(MetricsDumpSpecTest, OverflowingPeriodIsAnErrorNotACrash) {
  auto dumper = obs::MakeMetricsDumper("/tmp/m.prom,99999999999999999999");
  ASSERT_FALSE(dumper.ok());
  EXPECT_NE(dumper.status().ToString().find("out of range"),
            std::string::npos);
}

TEST(MetricsDumpSpecTest, ZeroPeriodIsAnError) {
  EXPECT_FALSE(obs::MakeMetricsDumper("/tmp/m.prom,0").ok());
}

TEST(MetricsDumpSpecTest, EmptyPathWithPeriodIsAnError) {
  EXPECT_FALSE(obs::MakeMetricsDumper(",500").ok());
}

TEST(MetricsDumpSpecTest, ValidSpecsParse) {
  const std::string dir = ::testing::TempDir();
  EXPECT_TRUE(obs::MakeMetricsDumper("").ok());  // flag absent: null dumper
  EXPECT_EQ(*obs::MakeMetricsDumper(""), nullptr);
  auto plain = obs::MakeMetricsDumper(dir + "/plain.prom");
  ASSERT_TRUE(plain.ok());
  EXPECT_NE(*plain, nullptr);
  auto with_period = obs::MakeMetricsDumper(dir + "/p.prom,500");
  ASSERT_TRUE(with_period.ok());
  // Non-digit suffix after the comma: the comma belongs to the path.
  auto comma_path = obs::MakeMetricsDumper(dir + "/odd,name.prom");
  ASSERT_TRUE(comma_path.ok());
}

// ---------------------------------------------------------------------------
// Regression: non-finite coordinates must never reach Ingest. This
// toolchain's operator>> already rejects "inf"/"nan" spellings, and the
// session's point validation rejects any that a standard library does
// parse — either way the observable behavior is pinned here: an ERR reply
// and an unchanged session.
// ---------------------------------------------------------------------------

TEST_F(ServeProtocolTest, NonFiniteObserveIsRejected) {
  const Dataset ds = TestData();
  auto manager = NewManager("p");
  net::RequestDispatcher dispatcher(manager.get(), root_ + "/p");
  ASSERT_TRUE(manager->CreateSession("s", SpecFor(ds)).ok());
  for (const std::string bad :
       {"inf", "-inf", "nan", "NaN", "Infinity", "1e999999"}) {
    const std::string out =
        RunStdin(dispatcher, "OBSERVE s 1 0 " + bad + " 2.0\n");
    EXPECT_EQ(out.rfind("ERR OBSERVE requires", 0), 0u) << bad << ": " << out;
  }
  auto stats = manager->Stats("s");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->observed, 0);  // nothing slipped past the guard
}

TEST_F(ServeProtocolTest, NonFiniteBatchLineIsRejectedAndDrained) {
  const Dataset ds = TestData();
  auto manager = NewManager("p");
  net::RequestDispatcher dispatcher(manager.get(), root_ + "/p");
  ASSERT_TRUE(manager->CreateSession("s", SpecFor(ds)).ok());
  const std::string out = RunStdin(
      dispatcher, "OBSERVEB s 3\n1 0 1 2\n2 0 nan 4\n3 0 5 6\nLIST\n");
  // Whole batch rejected, remaining payload drained, LIST still a command.
  EXPECT_EQ(out.rfind("ERR OBSERVEB batch line 1 requires", 0), 0u) << out;
  EXPECT_NE(out.find("OK s\n"), std::string::npos) << out;
  auto stats = manager->Stats("s");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->observed, 0);
}

// ---------------------------------------------------------------------------
// Regression: the fair kinds checked only `dim > 0` and summed quotas in an
// `int`, so a CREATE whose quotas overflow the sum, or whose dim no point
// can have, answered OK. A constraint whose quota sum overflows an int is
// now invalid, and the fair kinds take the same k/dim shape check as the
// other kinds.
// ---------------------------------------------------------------------------

TEST_F(ServeProtocolTest, FairKindsRejectOversizedQuotasAndDim) {
  auto manager = NewManager("p");
  net::RequestDispatcher dispatcher(manager.get(), root_ + "/p");
  const std::string bounds = " dmin=1 dmax=2\n";
  const std::string out = RunStdin(
      dispatcher,
      "CREATE a algo=sfdm2 dim=2 quotas=2147483647,2147483647" + bounds +
          "CREATE b algo=sfdm1 dim=2 quotas=2147483647,2147483647" + bounds +
          "CREATE c algo=sfdm2 dim=2 quotas=1048576,1" + bounds +
          "CREATE d algo=sfdm2 dim=4611686018427387904 quotas=2,2" + bounds +
          "CREATE e algo=sfdm1 dim=4611686018427387904 quotas=2,2" + bounds +
          "CREATE ok algo=sfdm2 dim=2 quotas=2,2" + bounds + "LIST\n");
  std::vector<std::string> lines;
  for (size_t at = 0; at < out.size();) {
    const size_t end = out.find('\n', at);
    lines.push_back(out.substr(at, end - at));
    at = end + 1;
  }
  ASSERT_EQ(lines.size(), 7u) << out;
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(lines[i].rfind("ERR ", 0), 0u) << lines[i];
    EXPECT_NE(lines[i].find("quota sum 4294967294 does not fit in an int"),
              std::string::npos)
        << lines[i];
  }
  EXPECT_EQ(lines[2].rfind("ERR ", 0), 0u) << lines[2];
  EXPECT_NE(lines[2].find("k must be in [1, 1048576]"), std::string::npos)
      << lines[2];
  for (size_t i = 3; i < 5; ++i) {
    EXPECT_EQ(lines[i].rfind("ERR ", 0), 0u) << lines[i];
    EXPECT_NE(lines[i].find("dim must be in [1, 1048576]"), std::string::npos)
        << lines[i];
  }
  EXPECT_EQ(lines[5], "OK");
  EXPECT_EQ(lines[6], "OK ok");  // no refused session was created
}

// ---------------------------------------------------------------------------
// Regression: a malformed last coordinate (`3e`, `-.`, `5e+`, `1e400`) used
// to be dropped silently — `>>` latches eofbit along with failbit on a
// token that runs to end of line, which the parser read as a clean end —
// so the half-parsed point was accepted and written to the WAL. The token
// now rejects the request, over both transports, and nothing is applied.
// ---------------------------------------------------------------------------

const char kMalformedTailScript[] =
    "OBSERVE s 1 0 1.0 2.0 3e\n"
    "OBSERVE s 2 0 1.0 2.0 1e400\n"
    "OBSERVEB s 2\n3 0 1.0 2.0\n4 1 3.0 -.\n"
    "OBSERVEB s 2\n5 0 1.0 2.0 5e+\n6 1 3.0 4.0\n"
    "LIST\n";

const char kMalformedTailReplies[] =
    "ERR OBSERVE requires numeric coordinates\n"
    "ERR OBSERVE requires numeric coordinates\n"
    "ERR OBSERVEB batch line 1 requires numeric coordinates\n"
    "ERR OBSERVEB batch line 0 requires numeric coordinates\n"
    "OK s\n";

TEST_F(ServeProtocolTest, MalformedLastCoordinateIsRejectedOverStdin) {
  const Dataset ds = TestData();
  auto manager = NewManager("p");
  net::RequestDispatcher dispatcher(manager.get(), root_ + "/p");
  ASSERT_TRUE(manager->CreateSession("s", SpecFor(ds)).ok());
  EXPECT_EQ(RunStdin(dispatcher, kMalformedTailScript), kMalformedTailReplies);
  auto stats = manager->Stats("s");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->observed, 0);
}

TEST_F(ServeProtocolTest, MalformedLastCoordinateIsRejectedOverTcp) {
  const Dataset ds = TestData();
  auto manager = NewManager("p");
  net::RequestDispatcher dispatcher(manager.get(), root_ + "/p");
  ASSERT_TRUE(manager->CreateSession("s", SpecFor(ds)).ok());
  auto server = net::TcpServer::Start(&dispatcher, {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = net::NetClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Send(kMalformedTailScript).ok());
  std::string replies;
  for (int i = 0; i < 5; ++i) {
    auto reply = client->Recv();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    replies += *reply;
  }
  EXPECT_EQ(replies, kMalformedTailReplies);
  (*server)->Stop();
  auto stats = manager->Stats("s");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->observed, 0);
}

// ---------------------------------------------------------------------------
// Regression (crash loop): `OBSERVE s <id> 7 ...` on an m=2 SFDM-2 session
// used to abort the whole server inside the sink. As the 256th record it
// was fsynced first (the WAL's sync_every boundary), so every restart
// aborted again when replay re-applied it. The session now rejects the
// point before the WAL; a restart from the on-disk image serves SOLVE.
// ---------------------------------------------------------------------------

TEST_F(ServeProtocolTest, OutOfRangeGroupIsRejectedAndRestartServes) {
  const Dataset ds = TestData(300);
  auto manager = NewManager("p");
  net::RequestDispatcher dispatcher(manager.get(), root_ + "/p");
  ASSERT_EQ(RunStdin(dispatcher, "CREATE s " + SpecFor(ds) + "\n"), "OK\n");
  std::string good;
  std::string oks;
  for (size_t i = 0; i < 255; ++i) {
    good += ObserveLine("s", ds.At(i));
    oks += "OK\n";
  }
  ASSERT_EQ(RunStdin(dispatcher, good), oks);
  // Record 256, where the WAL syncs, carries group 7 of m=2.
  EXPECT_EQ(RunStdin(dispatcher, "OBSERVE s 255 7 0.5 0.5\n"),
            "ERR InvalidArgument: point group 7 out of range [0, 2)\n");
  EXPECT_EQ(RunStdin(dispatcher, "OBSERVE s 255 -1 0.5 0.5\n"),
            "ERR InvalidArgument: point group -1 out of range [0, 2)\n");
  // A bad point anywhere in a batch rejects all of it; the announced
  // lines are still drained, so LIST parses as a command.
  EXPECT_EQ(RunStdin(dispatcher,
                     "OBSERVEB s 3\n900 0 1 2\n901 2 3 4\n902 1 5 6\nLIST\n"),
            "ERR InvalidArgument: point group 2 out of range [0, 2)\nOK s\n");
  auto stats = manager->Stats("s");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->observed, 255);
  // The 256th good record reaches the sync boundary, so the log on disk
  // now holds exactly the 256 good records.
  ASSERT_EQ(RunStdin(dispatcher, ObserveLine("s", ds.At(255))), "OK\n");
  const std::string served = RunStdin(dispatcher, "SOLVE s\n");
  ASSERT_EQ(served.rfind("OK div=", 0), 0u) << served;

  // Restart from the on-disk image as a kill -9 leaves it (the live
  // manager would snapshot on a clean shutdown): replay applies the WAL.
  std::filesystem::copy(root_ + "/p", root_ + "/crash",
                        std::filesystem::copy_options::recursive);
  auto restarted = NewManager("crash");
  net::RequestDispatcher after(restarted.get(), root_ + "/crash");
  EXPECT_EQ(RunStdin(after, "SOLVE s\n"), served);
  auto recovered = restarted->Stats("s");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->observed, 256);
  EXPECT_EQ(recovered->replayed_records, 256);
}

// ---------------------------------------------------------------------------
// Back-compat: a session directory written before thread counts left the
// spec and the snapshot — its SPEC carries `threads=4 solve_threads=2` and
// its snapshot's two thread slots hold 4 and 2 — still reopens, replays its
// WAL tail, serves the same SOLVE bytes and state version as a width-1
// reference, and bootstraps a follower without a spec mismatch.
// ---------------------------------------------------------------------------

/// Rewrites the retired thread slots of a sfdm2 session snapshot at `path`
/// to the values an older writer stored for `threads`/`solve_threads`, and
/// re-frames the file with a fresh checksum.
void WriteOldThreadSlots(const std::string& path, const std::string& spec,
                         size_t groups, int32_t batch_threads,
                         int32_t solve_threads) {
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  std::string framed = std::move(bytes.value());
  // Frame: magic (8) | version u32 | payload size u64 | payload | fnv u64.
  constexpr size_t kFrameHeader = 8 + 4 + 8;
  // Payload: "fdm.session" | spec | seq i64 | "sfdm2" | group count u64 |
  // quotas i32 × m | dim u64 | metric u8 | d_min, d_max, ε | the slots.
  const size_t slots = kFrameHeader + (8 + 11) + (8 + spec.size()) + 8 +
                       (8 + 5) + 8 + 4 * groups + 8 + 1 + 3 * 8;
  ASSERT_LE(slots + 8 + 8, framed.size());
  int32_t current[2];
  std::memcpy(current, framed.data() + slots, sizeof(current));
  ASSERT_EQ(current[0], 1);  // the constant the current writer stores
  ASSERT_EQ(current[1], 1);
  const int32_t old[2] = {batch_threads, solve_threads};
  std::memcpy(framed.data() + slots, old, sizeof(old));
  const size_t payload_size = framed.size() - kFrameHeader - 8;
  const uint64_t checksum =
      Fnv1a64(framed.data() + kFrameHeader, payload_size);
  std::memcpy(framed.data() + kFrameHeader + payload_size, &checksum,
              sizeof(checksum));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  ASSERT_TRUE(out.good());
}

TEST_F(ServeProtocolTest, SessionDirWithRetiredThreadSettingsStillServes) {
  const Dataset ds = TestData();
  const std::string spec = SpecFor(ds);
  const std::string old_spec = spec + " threads=4 solve_threads=2";
  const std::string dir = root_ + "/p/old";
  const size_t mid = ds.size() / 2;
  {
    auto session = DurableSession::Create(dir, old_spec);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (size_t i = 0; i < ds.size(); ++i) {
      ASSERT_TRUE(session->Observe(ds.At(i)).ok());
      if (i + 1 == mid) {
        ASSERT_TRUE(session->TakeSnapshot().ok());
      }
    }
    ASSERT_TRUE(session->Sync().ok());
  }  // dropped without a snapshot: the second half is a WAL tail
  const auto snapshots = ListSessionSnapshots(SessionSnapDir(dir));
  ASSERT_EQ(snapshots.size(), 1u);
  ASSERT_NO_FATAL_FAILURE(WriteOldThreadSlots(snapshots[0].second, old_spec,
                                              /*groups=*/2, 4, 2));

  ASSERT_EQ(FanOutWidth(), 1);
  auto reference = NewManager("ref");
  ASSERT_TRUE(reference->CreateSession("old", spec).ok());
  for (size_t i = 0; i < ds.size(); ++i) {
    ASSERT_TRUE(reference->Observe("old", ds.At(i)).ok());
  }
  net::RequestDispatcher reference_dispatcher(reference.get(), root_ + "/ref");
  const std::string expected = RunStdin(reference_dispatcher, "SOLVE old\n");
  ASSERT_EQ(expected.rfind("OK div=", 0), 0u) << expected;
  auto expected_stats = reference->Stats("old");
  ASSERT_TRUE(expected_stats.ok());

  auto manager = NewManager("p");
  net::RequestDispatcher dispatcher(manager.get(), root_ + "/p");
  EXPECT_EQ(RunStdin(dispatcher, "SOLVE old\n"), expected);
  auto stats = manager->Stats("old");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->spec, old_spec);
  EXPECT_EQ(stats->snapshot_seq, static_cast<int64_t>(mid));
  EXPECT_EQ(stats->replayed_records, static_cast<int64_t>(ds.size() - mid));
  EXPECT_EQ(stats->state_version, expected_stats->state_version);

  ReplicaManagerOptions options;
  options.primary_root = root_ + "/p";
  auto replicas = ReplicaManager::Create(options);
  ASSERT_TRUE(replicas.ok()) << replicas.status().ToString();
  net::RequestDispatcher follower(replicas->get(), options.primary_root);
  const std::string followed = RunStdin(follower, "SOLVE old\n");
  // The follower appends its replication fields to the primary's reply.
  const std::string primary_part = expected.substr(0, expected.size() - 1);
  EXPECT_EQ(followed.rfind(primary_part + " version=" +
                               std::to_string(expected_stats->state_version),
                           0),
            0u)
      << followed;
}

// ---------------------------------------------------------------------------
// Regression: no-payload verbs reject trailing garbage consistently
// (`METRICS json garbage` used to be silently accepted).
// ---------------------------------------------------------------------------

TEST_F(ServeProtocolTest, TrailingGarbageRejectedOnPrimary) {
  const Dataset ds = TestData();
  auto manager = NewManager("p");
  net::RequestDispatcher dispatcher(manager.get(), root_ + "/p");
  ASSERT_TRUE(manager->CreateSession("s", SpecFor(ds)).ok());
  const struct {
    std::string request;
    std::string expect;
  } cases[] = {
      {"METRICS json garbage", "ERR METRICS takes no argument or 'json'\n"},
      {"METRICS garbage", "ERR METRICS takes no argument or 'json'\n"},
      {"SOLVE s garbage", "ERR SOLVE takes only a session name\n"},
      {"STATS s garbage", "ERR STATS takes only a session name\n"},
      {"SNAPSHOT s garbage", "ERR SNAPSHOT takes only a session name\n"},
      {"RESTORE s garbage", "ERR RESTORE takes only a session name\n"},
      {"LIST garbage", "ERR LIST takes no arguments\n"},
      {"QUIT garbage", "ERR QUIT takes no arguments\n"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(RunStdin(dispatcher, c.request + "\n"), c.expect) << c.request;
  }
  // `QUIT garbage` must NOT quit: the next request is still served.
  EXPECT_EQ(RunStdin(dispatcher, "QUIT garbage\nLIST\n"),
            "ERR QUIT takes no arguments\nOK s\n");
  // And the well-formed verbs still work.
  EXPECT_EQ(RunStdin(dispatcher, "LIST\n"), "OK s\n");
}

TEST_F(ServeProtocolTest, TrailingGarbageRejectedOnFollower) {
  const Dataset ds = TestData();
  auto manager = NewManager("p");
  ASSERT_TRUE(manager->CreateSession("s", SpecFor(ds)).ok());
  ASSERT_TRUE(manager->Observe("s", ds.At(0)).ok());
  ASSERT_TRUE(manager->Snapshot("s").ok());

  ReplicaManagerOptions options;
  options.primary_root = root_ + "/p";
  auto replicas = ReplicaManager::Create(options);
  ASSERT_TRUE(replicas.ok()) << replicas.status().ToString();
  net::RequestDispatcher dispatcher(replicas->get(), options.primary_root);
  const struct {
    std::string request;
    std::string expect;
  } cases[] = {
      {"SOLVE s garbage", "ERR SOLVE takes only a session name\n"},
      {"STATS s garbage", "ERR STATS takes only a session name\n"},
      {"LAG s garbage", "ERR LAG takes only a session name\n"},
      {"REPLICA s garbage", "ERR REPLICA takes only a session name\n"},
      {"LIST garbage", "ERR LIST takes no arguments\n"},
      {"QUIT garbage", "ERR QUIT takes no arguments\n"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(RunStdin(dispatcher, c.request + "\n"), c.expect) << c.request;
  }
}

}  // namespace
}  // namespace fdm
