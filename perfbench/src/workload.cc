#include "workload.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "core/fairness.h"
#include "core/solution.h"
#include "data/simulated.h"
#include "service/sink_spec.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using fdm::Dataset;
using fdm::StreamPoint;

constexpr int kSolutionSize = 20;

/// Kinds of session the workloads mix, each a dataset of the paper's
/// evaluation with the algorithm the paper runs on it.
enum class Kind { kCensusSexAge, kCensusAge, kAdultSex, kLyrics };

Dataset Generate(Kind kind, uint64_t seed, size_t n) {
  switch (kind) {
    case Kind::kCensusSexAge:
      return fdm::SimulatedCensus(fdm::CensusGrouping::kSexAge, seed, n);
    case Kind::kCensusAge:
      return fdm::SimulatedCensus(fdm::CensusGrouping::kAge, seed, n);
    case Kind::kAdultSex:
      return fdm::SimulatedAdult(fdm::AdultGrouping::kSex, seed, n);
    case Kind::kLyrics:
      return fdm::SimulatedLyrics(seed, n);
  }
  return fdm::SimulatedLyrics(seed, n);
}

const char* MetricName(fdm::MetricKind kind) {
  switch (kind) {
    case fdm::MetricKind::kManhattan:
      return "manhattan";
    case fdm::MetricKind::kAngular:
      return "angular";
    case fdm::MetricKind::kEuclidean:
      break;
  }
  return "euclidean";
}

std::string Shortest(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Moves `quotas[g]` points of every group g to the front of the stream
/// (keeping the relative order of everything else), so that the first
/// batch of a session created empty already makes every group feasible.
Dataset FrontLoad(const Dataset& ds, const std::vector<int>& quotas) {
  std::vector<size_t> order;
  order.reserve(ds.size());
  std::vector<int> need = quotas;
  std::vector<bool> taken(ds.size(), false);
  for (size_t i = 0; i < ds.size(); ++i) {
    int& n = need[static_cast<size_t>(ds.GroupOf(i))];
    if (n > 0) {
      --n;
      order.push_back(i);
      taken[i] = true;
    }
  }
  for (size_t i = 0; i < ds.size(); ++i) {
    if (!taken[i]) order.push_back(i);
  }
  Dataset out(ds.name(), ds.dim(), ds.num_groups(), ds.metric_kind());
  out.Reserve(ds.size());
  for (const size_t i : order) out.Add(ds.Point(i), ds.GroupOf(i));
  return out;
}

/// Builds a session of `kind` holding `n` points, with k=20 proportional
/// quotas and distance bounds estimated from the data.
SessionDef MakeSession(std::string name, Kind kind, uint64_t seed, size_t n,
                       bool dedup) {
  const Dataset raw = Generate(kind, seed, n);
  const auto sizes = raw.GroupSizes();
  auto fair = fdm::ProportionalRepresentation(kSolutionSize, sizes);
  FDM_CHECK(fair.ok());
  const fdm::DistanceBounds b = fdm::EstimateDistanceBounds(raw, 1000, seed);
  const bool fair1 = kind == Kind::kAdultSex;  // SFDM-1 needs m = 2
  std::string spec = std::string("algo=") + (fair1 ? "sfdm1" : "sfdm2") +
                     " dim=" + std::to_string(raw.dim()) + " quotas=";
  for (size_t g = 0; g < fair->quotas.size(); ++g) {
    if (g > 0) spec += ',';
    spec += std::to_string(fair->quotas[g]);
  }
  spec += std::string(" metric=") + MetricName(raw.metric_kind()) +
          " dmin=" + Shortest(b.min) + " dmax=" + Shortest(b.max);
  if (dedup) spec += " dedup=on";
  SessionDef s;
  s.name = std::move(name);
  s.spec = std::move(spec);
  s.dedup = dedup;
  s.data = std::make_unique<Dataset>(FrontLoad(raw, fair->quotas));
  return s;
}

/// One point line: `<id> <group> <c0> ... <c_{d-1}>`, coordinates at
/// max_digits10 so the server parses exactly the reference's doubles.
void AppendPointLine(const Dataset& ds, size_t row, std::string* out) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), row);
  out->append(buf, res.ptr);
  out->push_back(' ');
  res = std::to_chars(buf, buf + sizeof(buf), ds.GroupOf(row));
  out->append(buf, res.ptr);
  for (const double c : ds.Point(row)) {
    out->push_back(' ');
    res = std::to_chars(buf, buf + sizeof(buf), c,
                        std::chars_format::general, 17);
    out->append(buf, res.ptr);
  }
}

class RequestWriter {
 public:
  explicit RequestWriter(Workload* w) : w_(w) {}

  void Create(uint16_t s, uint8_t conn) {
    Request r = Base(Stage::kSetup, Op::kCreate, s, conn);
    r.text = "CREATE " + w_->sessions[s].name + " " + w_->sessions[s].spec;
    w_->requests.push_back(std::move(r));
  }

  /// OBSERVEB of the session's next `n` points.
  void Batch(Stage stage, uint16_t s, uint8_t conn, uint32_t n,
             double due = 0.0) {
    SessionDef& session = w_->sessions[s];
    Request r = Base(stage, Op::kObserveB, s, conn, due);
    r.first = static_cast<uint32_t>(session.next_row);
    r.count = n;
    session.next_row += n;
    FDM_CHECK(session.next_row <= session.data->size());
    Render(&r);
    w_->requests.push_back(std::move(r));
  }

  /// Sends an earlier batch again (exact duplicates).
  void Resend(const Request& earlier) { w_->requests.push_back(earlier); }

  void Single(Stage stage, uint16_t s, uint8_t conn, double due) {
    SessionDef& session = w_->sessions[s];
    Request r = Base(stage, Op::kObserve, s, conn, due);
    r.first = static_cast<uint32_t>(session.next_row++);
    r.count = 1;
    FDM_CHECK(session.next_row <= session.data->size());
    Render(&r);
    w_->requests.push_back(std::move(r));
  }

  void Solve(Stage stage, uint16_t s, uint8_t conn, double due = 0.0) {
    Request r = Base(stage, Op::kSolve, s, conn, due);
    r.text = "SOLVE " + w_->sessions[s].name;
    w_->requests.push_back(std::move(r));
  }

  /// Every session ends with a 256-point batch — one full WAL sync
  /// interval, so everything acknowledged is on disk before the kill unless
  /// a WAL segment rotation falls inside the batch (main.cc) — followed by
  /// the final SOLVE whose reply the restart must reproduce.
  void Closing(int conns) {
    for (size_t s = 0; s < w_->sessions.size(); ++s) {
      const auto conn = static_cast<uint8_t>(s % static_cast<size_t>(conns));
      Batch(Stage::kClosing, static_cast<uint16_t>(s), conn, 256);
      Solve(Stage::kClosing, static_cast<uint16_t>(s), conn);
    }
  }

 private:
  Request Base(Stage stage, Op op, uint16_t s, uint8_t conn,
               double due = 0.0) const {
    Request r;
    r.stage = stage;
    r.op = op;
    r.session = s;
    r.conn = conn;
    r.due_s = due;
    return r;
  }

  void Render(Request* r) const {
    const SessionDef& session = w_->sessions[r->session];
    const Dataset& ds = *session.data;
    if (r->op == Op::kObserve) {
      r->text = "OBSERVE " + session.name + " ";
      AppendPointLine(ds, r->first, &r->text);
      return;
    }
    r->text = "OBSERVEB " + session.name + " " + std::to_string(r->count);
    r->text.reserve(r->text.size() + r->count * (ds.dim() * 24 + 16));
    for (uint32_t i = 0; i < r->count; ++i) {
      r->text.push_back('\n');
      AppendPointLine(ds, r->first + i, &r->text);
    }
  }

  Workload* w_;
};

/// Zipf over `n` items: item i has weight 1/(i+1)^exponent.
class Zipf {
 public:
  Zipf(size_t n, double exponent) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) total += Weight(i, exponent);
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      acc += Weight(i, exponent) / total;
      cdf_.push_back(acc);
    }
  }
  size_t Sample(fdm::Rng& rng) const {
    const double u = rng.NextDouble();
    for (size_t i = 0; i < cdf_.size(); ++i) {
      if (u < cdf_[i]) return i;
    }
    return cdf_.size() - 1;
  }

 private:
  static double Weight(size_t i, double exponent) {
    return std::pow(static_cast<double>(i + 1), -exponent);
  }
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Points per second of `--seconds`, per session, that size the fixed work
/// of `ingest_bulk` (Census, Census+dedup, Adult, Lyrics): 30k in all, about
/// a third of the 93k points/s the seed code sustains on a 4-vCPU VM, so the
/// phase takes about a third of `--seconds` there. More work would hold
/// more pre-rendered request text in the generator, which peaks at 0.46 GB
/// at `--seconds 20`. The server pins
/// connections to its two event loops round-robin (Census + Adult on one,
/// Census+dedup + Lyrics on the other), and the shares keep both loops
/// busy until about the same moment.
constexpr double kBulkRate[4] = {9500, 5500, 9500, 5500};
constexpr uint32_t kBulkBatch = 4096;
constexpr int kBulkDepth = 2;

void BuildIngestBulk(Workload* w, uint64_t seed, double seconds) {
  w->open_loop = false;
  w->connections = 4;
  w->depth = kBulkDepth;
  const Kind kinds[4] = {Kind::kCensusSexAge, Kind::kCensusSexAge,
                         Kind::kAdultSex, Kind::kLyrics};
  const char* names[4] = {"census", "census_dedup", "adult", "lyrics"};
  uint32_t batches[4];
  for (int s = 0; s < 4; ++s) {
    batches[s] = static_cast<uint32_t>(kBulkRate[s] * seconds / kBulkBatch);
    const size_t n = (batches[s] + 1) * kBulkBatch;
    w->sessions.push_back(
        MakeSession(names[s], kinds[s], seed * 16 + s, n, s == 1));
  }
  RequestWriter b(w);
  for (uint16_t s = 0; s < 4; ++s) b.Create(s, static_cast<uint8_t>(s));
  fdm::Rng rng(seed ^ 0xb01c);
  for (uint16_t s = 0; s < 4; ++s) {
    const auto conn = static_cast<uint8_t>(s);
    for (uint32_t i = 0; i < batches[s]; ++i) {
      b.Batch(Stage::kPhase, s, conn, kBulkBatch);
      if (w->sessions[s].dedup && rng.NextDouble() < 0.1) {
        b.Resend(w->requests.back());
      }
      b.Solve(Stage::kPhase, s, conn);
    }
  }
  b.Closing(w->connections);
}

/// Scheduled events per second of `query_mixed`: half of the 1200/s at
/// which the seed's p50 latencies start to climb on a 4-vCPU VM (10 s runs
/// at 300 to 900/s held the same p50s; 1200/s doubled the OBSERVE p50,
/// 1500/s multiplied it by six). Each event is a single OBSERVE or a
/// 100-point OBSERVEB followed by a SOLVE.
constexpr double kQueryRate = 600.0;
constexpr double kQueryBatchShare = 0.2;  // the rest are single OBSERVEs
constexpr uint32_t kQueryBatch = 100;
/// The stream's first events go out closed-loop during set-up: a fresh
/// sink's first cold SOLVEs take up to ~130 ms (vs a few ms later), and
/// on the clock they would queue the hot session's connection for seconds.
constexpr size_t kQueryWarmupEvents = 800;

void BuildQueryMixed(Workload* w, uint64_t seed, double seconds) {
  w->open_loop = true;
  w->connections = 4;
  w->phase_s = seconds;
  const Kind kinds[4] = {Kind::kCensusSexAge, Kind::kAdultSex, Kind::kLyrics,
                         Kind::kCensusAge};
  const char* names[4] = {"census", "adult", "lyrics", "census_age"};
  // Draw the schedule first: it fixes how many points each session needs.
  struct Event {
    uint16_t session;
    bool batch;
  };
  fdm::Rng rng(seed ^ 0x9e7);
  const Zipf zipf(4, 1.0);
  const auto events =
      kQueryWarmupEvents + static_cast<size_t>(kQueryRate * seconds);
  std::vector<Event> schedule;
  size_t need[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < events; ++i) {
    const auto s = static_cast<uint16_t>(zipf.Sample(rng));
    const bool batch = rng.NextDouble() < kQueryBatchShare;
    schedule.push_back({s, batch});
    need[s] += batch ? kQueryBatch : 1;
  }
  for (int s = 0; s < 4; ++s) {
    w->sessions.push_back(MakeSession(names[s], kinds[s], seed * 16 + s,
                                      need[s] + 256, false));
  }
  RequestWriter b(w);
  for (uint16_t s = 0; s < 4; ++s) b.Create(s, static_cast<uint8_t>(s));
  for (size_t i = 0; i < schedule.size(); ++i) {
    const bool warm = i < kQueryWarmupEvents;
    const Stage stage = warm ? Stage::kSetup : Stage::kPhase;
    const double due =
        warm ? 0.0 : static_cast<double>(i - kQueryWarmupEvents) / kQueryRate;
    const Event& e = schedule[i];
    const auto conn = static_cast<uint8_t>(e.session);
    if (e.batch) {
      b.Batch(stage, e.session, conn, kQueryBatch, due);
      b.Solve(stage, e.session, conn, due);
    } else {
      b.Single(stage, e.session, conn, due);
    }
  }
  b.Closing(w->connections);
}

/// `spill_churn`: 16 sessions behind `--max_resident=4`, one connection so
/// the server sees one fixed order (the LRU, and so the restore count, is
/// then a function of the seed). Each event is a small OBSERVEB and a SOLVE.
constexpr double kSpillRate = 30.0;
/// Session popularity, Zipf over the session index: about one request in
/// five touches a spilled session, so the p50 falls well inside the
/// resident-session latencies and the p90 well inside the spilled ones.
constexpr double kSpillSkew = 1.8;
/// The two hottest sessions are SFDM-1 (Adult Sex) and are almost never
/// evicted; the rest, which take the spills, are SFDM-2 (Census Age), so
/// the spill path has one cost profile.
constexpr size_t kSpillSfdm1 = 2;
constexpr uint32_t kSpillBatch = 8;
constexpr uint32_t kSpillPreload = 2000;
constexpr size_t kSpillSessions = 16;

void BuildSpillChurn(Workload* w, uint64_t seed, double seconds) {
  w->open_loop = true;
  w->connections = 1;
  w->max_resident = 4;
  w->phase_s = seconds;
  fdm::Rng rng(seed ^ 0x5b11);
  const Zipf zipf(kSpillSessions, kSpillSkew);
  const auto events = static_cast<size_t>(kSpillRate * seconds);
  std::vector<uint16_t> schedule;
  std::vector<size_t> need(kSpillSessions, kSpillPreload + 256);
  for (size_t i = 0; i < events; ++i) {
    const auto s = static_cast<uint16_t>(zipf.Sample(rng));
    schedule.push_back(s);
    need[s] += kSpillBatch;
  }
  for (size_t s = 0; s < kSpillSessions; ++s) {
    const Kind kind = s < kSpillSfdm1 ? Kind::kAdultSex : Kind::kCensusAge;
    char name[32];
    std::snprintf(name, sizeof(name), "s%02zu", s);
    w->sessions.push_back(
        MakeSession(name, kind, seed * 64 + s, need[s], false));
  }
  RequestWriter b(w);
  for (uint16_t s = 0; s < kSpillSessions; ++s) {
    b.Create(s, 0);
    for (uint32_t done = 0; done < kSpillPreload; done += 500) {
      b.Batch(Stage::kSetup, s, 0, 500);
    }
  }
  for (size_t i = 0; i < schedule.size(); ++i) {
    const double due = static_cast<double>(i) / kSpillRate;
    b.Batch(Stage::kPhase, schedule[i], 0, kSpillBatch, due);
    b.Solve(Stage::kPhase, schedule[i], 0, due);
  }
  b.Closing(1);
}

// ---------------------------------------------------------------------------
// Reference
// ---------------------------------------------------------------------------

struct SessionTally {
  int64_t observed = 0;
  int64_t kept = 0;
  int64_t rejected = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  std::string error;
};

/// Feeds one session's requests, in order, to a bare sink built from the
/// same spec, and writes the predicted reply into each request. Exact
/// duplicates are skipped on a dedup=on session, as the server does.
SessionTally RunReference(Workload* w, uint16_t s,
                          const std::vector<size_t>& mine) {
  SessionTally t;
  const SessionDef& session = w->sessions[s];
  auto made = fdm::MakeSinkFromSpec(session.spec);
  if (!made.ok()) {
    t.error = session.name + ": " + made.status().ToString();
    return t;
  }
  fdm::StreamSink& sink = **made;
  std::unordered_set<int64_t> seen;
  bool cached = false;
  uint64_t cached_version = 0;
  std::string cached_reply;
  for (const size_t idx : mine) {
    Request& r = w->requests[idx];
    switch (r.op) {
      case Op::kCreate:
        r.expect = "OK\n";
        break;
      case Op::kObserve:
      case Op::kObserveB: {
        const std::vector<StreamPoint> all = PointsOf(*w, r);
        std::vector<StreamPoint> fresh;
        for (const StreamPoint& p : all) {
          if (!session.dedup || seen.insert(p.id).second) fresh.push_back(p);
        }
        const auto dups = static_cast<int64_t>(all.size() - fresh.size());
        t.rejected += dups;
        t.observed += static_cast<int64_t>(fresh.size());
        if (r.op == Op::kObserve) {
          if (!fresh.empty()) t.kept += sink.Observe(fresh[0]) ? 1 : 0;
          r.expect = dups > 0 ? "OK dup=1\n" : "OK\n";
        } else {
          if (!fresh.empty()) {
            t.kept += static_cast<int64_t>(sink.ObserveBatch(fresh));
          }
          r.expect = "OK kept=" + std::to_string(fresh.size()) +
                     " dup=" + std::to_string(dups) + "\n";
        }
        break;
      }
      case Op::kSolve: {
        const uint64_t version = sink.StateVersion();
        r.solve_hit = cached && cached_version == version;
        if (r.solve_hit) {
          ++t.hits;
        } else {
          ++t.misses;
          auto solution = sink.Solve();
          if (!solution.ok()) {
            t.error = session.name + ": SOLVE fails in the reference: " +
                      solution.status().ToString();
            return t;
          }
          cached = true;
          cached_version = version;
          cached_reply = SolveReply(*solution);
        }
        r.expect = cached_reply;
        break;
      }
      case Op::kStats:
      case Op::kSnapshot:
        t.error = session.name + ": closing verb in the generated stream";
        return t;
    }
  }
  return t;
}

/// Replays the server's LRU residency policy (SessionManager) over the
/// single ordered request stream and counts the sessions it restores.
int64_t PredictRestores(const Workload& w) {
  if (w.max_resident == 0) return 0;
  const size_t n = w.sessions.size();
  std::vector<bool> resident(n, false);
  std::vector<uint64_t> last(n, 0);
  uint64_t tick = 0;
  size_t count = 0;
  int64_t restores = 0;
  auto enforce = [&] {
    while (count > w.max_resident) {
      size_t victim = n;
      uint64_t newest = 0;
      for (size_t i = 0; i < n; ++i) {
        if (!resident[i]) continue;
        if (victim == n || last[i] < last[victim]) victim = i;
        newest = std::max(newest, last[i]);
      }
      if (victim == n || last[victim] == newest) return;
      resident[victim] = false;
      --count;
    }
  };
  for (const Request& r : w.requests) {
    if (r.op == Op::kCreate) {
      resident[r.session] = true;
      ++count;
      last[r.session] = ++tick;
    } else {
      last[r.session] = ++tick;
      if (!resident[r.session]) {
        resident[r.session] = true;
        ++count;
        ++restores;
      }
    }
    enforce();
  }
  // The STATS sweep after the phase touches every session once more.
  for (size_t s = 0; s < n; ++s) {
    last[s] = ++tick;
    if (!resident[s]) {
      resident[s] = true;
      ++count;
      ++restores;
    }
    enforce();
  }
  return restores;
}

bool Finish(Workload* w, std::string* error) {
  std::vector<std::vector<size_t>> per_session(w->sessions.size());
  for (size_t i = 0; i < w->requests.size(); ++i) {
    per_session[w->requests[i].session].push_back(i);
    if (w->requests[i].stage == Stage::kPhase &&
        w->requests[i].op != Op::kSolve) {
      w->phase_points += w->requests[i].count;
    }
  }
  std::vector<SessionTally> tallies(w->sessions.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const size_t nthreads = std::min<size_t>(4, w->sessions.size());
  for (size_t t = 0; t < nthreads; ++t) {
    threads.emplace_back([&] {
      for (size_t s; (s = next.fetch_add(1)) < w->sessions.size();) {
        tallies[s] =
            RunReference(w, static_cast<uint16_t>(s), per_session[s]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ExactCounts& c = w->counts;
  for (size_t s = 0; s < tallies.size(); ++s) {
    const SessionTally& t = tallies[s];
    if (!t.error.empty()) {
      *error = t.error;
      return false;
    }
    w->sessions[s].observed = t.observed;
    c.points_observed += t.observed;
    c.points_kept += t.kept;
    c.dedup_rejected += t.rejected;
    c.solve_hits += t.hits;
    c.solve_misses += t.misses;
  }
  // Every request, plus one STATS per session and the METRICS scrape.
  c.requests = static_cast<int64_t>(w->requests.size() + w->sessions.size() + 1);
  c.restores = PredictRestores(*w);
  w->generated = w->requests.size();
  return true;
}

}  // namespace

std::vector<StreamPoint> PointsOf(const Workload& w, const Request& r) {
  const Dataset& ds = *w.sessions[r.session].data;
  std::vector<StreamPoint> points;
  points.reserve(r.count);
  for (uint32_t i = 0; i < r.count; ++i) points.push_back(ds.At(r.first + i));
  return points;
}

std::string SolveReply(const fdm::Solution& solution) {
  std::ostringstream text;
  text << "OK div=" << solution.diversity << " ids=";
  const auto ids = solution.Ids();
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) text << ',';
    text << ids[i];
  }
  text << '\n';
  return text.str();
}

std::string SolveAfter(const Workload& w, uint16_t s, int64_t n) {
  const SessionDef& session = w.sessions[s];
  std::unordered_set<int64_t> seen;
  std::vector<StreamPoint> prefix;
  for (size_t i = 0; i < w.generated; ++i) {
    const Request& r = w.requests[i];
    if (r.session != s || (r.op != Op::kObserve && r.op != Op::kObserveB)) {
      continue;
    }
    for (StreamPoint& p : PointsOf(w, r)) {
      if (static_cast<int64_t>(prefix.size()) == n) break;
      if (!session.dedup || seen.insert(p.id).second) {
        prefix.push_back(std::move(p));
      }
    }
  }
  if (static_cast<int64_t>(prefix.size()) != n) {
    return "ERR the session recorded fewer than " + std::to_string(n) +
           " points";
  }
  auto made = fdm::MakeSinkFromSpec(session.spec);
  if (!made.ok()) return "ERR " + made.status().ToString();
  fdm::StreamSink& sink = **made;
  if (!prefix.empty()) sink.ObserveBatch(prefix);
  const auto solution = sink.Solve();
  return solution.ok() ? SolveReply(*solution)
                       : "ERR " + solution.status().ToString();
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, double seconds) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  if (name == "ingest_bulk") {
    BuildIngestBulk(w.get(), seed, seconds);
  } else if (name == "query_mixed") {
    BuildQueryMixed(w.get(), seed, seconds);
  } else if (name == "spill_churn") {
    BuildSpillChurn(w.get(), seed, seconds);
  } else {
    return nullptr;
  }
  std::string error;
  if (!Finish(w.get(), &error)) {
    std::fprintf(stderr, "perfbench: reference failed: %s\n", error.c_str());
    return nullptr;
  }
  return w;
}

}  // namespace perfbench
