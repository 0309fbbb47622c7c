// perfbench_gen — end-to-end load generator for `fdm_serve --listen`.
//
//   perfbench_gen --workload=NAME --seed=N --seconds=S --trace=0|1
//                 --server=PATH/fdm_serve --workdir=DIR
//
// Builds the workload from the seed (data, request text, and the
// reference's reply for every request) before it launches the server,
// then: set-up (READY, CREATEs, preload), the measured phase, a closing
// batch + final SOLVE per session, a STATS sweep and a METRICS scrape,
// `kill -9`, and a restart that must answer every session's SOLVE with its
// pre-kill bytes. `--trace=1` additionally replays the same stream layer by
// layer (trace.h) and reports per-layer metrics instead of end-to-end
// ones. The last stdout line is the JSON result.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "client.h"
#include "trace.h"
#include "util/argparse.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Set-ups and kill/restart recoveries per run (their medians are
/// reported), and the phase windows whose per-window values are reduced to
/// a median, so a stall of a few seconds on a shared host moves none of the
/// phase metrics: windows of at least kWindowS seconds and at least
/// kWindowSamples samples of each series (a p50 then has a dozen on either
/// side; the per-layer p90s pool the windows). A short set-up or recovery
/// is repeated beyond kRepeats until kRepeatBudgetS seconds of them have run
/// (at most kMaxRepeats): a 40 ms set-up is mostly fsync latency, and a
/// median of five followed it from run to run.
constexpr size_t kRepeats = 5;
constexpr double kRepeatBudgetS = 3.0;
constexpr size_t kMaxRepeats = 60;
constexpr double kWindowS = 0.25;
constexpr size_t kWindowSamples = 25;

/// Whether to time another set-up or recovery after `times`.
bool Again(const std::vector<double>& times) {
  double total = 0.0;
  for (const double t : times) total += t;
  return times.size() < kRepeats ||
         (total < kRepeatBudgetS && times.size() < kMaxRepeats);
}

/// Hypervisor steal slows the server and the generator alike, and on a
/// shared host it comes in bursts of tens of seconds that double tail
/// latencies. A measurement (set-up, phase window, recovery) counts only if
/// at most kMaxSteal of the machine's CPU time was stolen while it ran;
/// when fewer are that clean, the least stolen quarter (at least
/// kFewestClean) count. Steal comes in bursts shorter than a second too: at
/// 4% steal over a `query_mixed` phase a quarter of its 0.25 s windows read
/// clean, and their median OBSERVE p50 was 0.138 ms against 0.160 ms over
/// all windows (0.145-0.150 ms in quiet runs).
constexpr double kMaxSteal = 0.01;
constexpr size_t kFewestClean = 3;

/// Indices of the measurements that count, given each one's steal share.
std::vector<size_t> Counted(const std::vector<double>& steal) {
  const size_t fewest = std::max(kFewestClean, (steal.size() + 3) / 4);
  std::vector<size_t> order(steal.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  std::vector<size_t> kept;
  for (const size_t i : order) {
    if (steal[i] <= kMaxSteal || kept.size() < fewest) kept.push_back(i);
  }
  return kept;
}

/// Median of the `values` that count; `steal[i]` belongs to `values[i]`.
double CleanMedian(const std::vector<double>& values,
                   const std::vector<double>& steal) {
  std::vector<double> kept;
  for (const size_t i : Counted(steal)) kept.push_back(values[i]);
  return Median(kept);
}

size_t CountClean(const std::vector<double>& steal) {
  return static_cast<size_t>(std::count_if(
      steal.begin(), steal.end(), [](double s) { return s <= kMaxSteal; }));
}

/// Steal share over [a, b] of a run's clock, from the readings around it.
double StealBetween(const std::vector<HostSample>& host, double a, double b) {
  if (host.empty()) return 0.0;
  const HostSample* from = &host.front();
  const HostSample* to = &host.back();
  for (const HostSample& h : host) {
    if (h.t_s <= a) from = &h;
  }
  for (auto it = host.rbegin(); it != host.rend(); ++it) {
    if (it->t_s >= b) to = &*it;
  }
  return StealShare(from->ticks, to->ticks);
}

std::vector<size_t> IndicesOf(const Workload& w, Stage stage) {
  std::vector<size_t> out;
  for (size_t i = 0; i < w.requests.size(); ++i) {
    if (w.requests[i].stage == stage) out.push_back(i);
  }
  return out;
}

/// Appends one `op` request per session (text from `make`, expected reply
/// from `expect`, which may be empty = any OK) and returns their indices.
template <typename Make, typename Expect>
std::vector<size_t> AddPerSession(Workload* w, Op op, Make make,
                                  Expect expect) {
  std::vector<size_t> out;
  for (size_t s = 0; s < w->sessions.size(); ++s) {
    Request r;
    r.stage = Stage::kClosing;
    r.op = op;
    r.session = static_cast<uint16_t>(s);
    r.conn = static_cast<uint8_t>(s % static_cast<size_t>(w->connections));
    r.text = make(w->sessions[s].name);
    r.expect = expect(s);
    out.push_back(w->requests.size());
    w->requests.push_back(std::move(r));
  }
  return out;
}

class Run {
 public:
  Run(Workload* w, std::string server_bin, std::string root)
      : w_(w), bin_(std::move(server_bin)), root_(std::move(root)) {}

  bool Execute();

  std::vector<Metric> EndToEnd() const;
  /// The phase's p90 latencies: per-layer, as host noise moves them more
  /// than any bound allows (METRICS.md).
  std::vector<Metric> Tails() const;
  std::vector<Metric> PerLayer(const TraceNumbers& t) const;
  /// Sample counts and generator lateness, for the human-readable report.
  std::string Summary() const;

  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;

 private:
  void Fail(const std::string& why) {
    if (correct) std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
    correct = false;
  }
  /// One slice of the measured phase; each end-to-end phase metric is the
  /// median of its per-window values.
  struct Window {
    double start_s = 0.0;  // phase clock
    double last_ack_s = 0.0;
    double points = 0.0;   // acknowledged OK
    std::vector<double> observe_ms;  // from due to reply; +inf on failure
    std::vector<double> solve_ms;
    std::vector<double> late_ms;     // how late the generator sent
    double steal = 0.0;              // share of CPU time stolen meanwhile
  };
  std::vector<Window> Windows() const;
  /// Median of `f` over the windows that count (kMaxSteal).
  double OverWindows(const std::function<double(const Window&)>& f) const;
  /// Share of the machine's CPU time stolen over the whole phase.
  double PhaseSteal() const {
    return phase_host_.empty() ? 0.0
                               : StealShare(phase_host_.front().ticks,
                                            phase_host_.back().ticks);
  }
  /// Launches `server` on a fresh root and runs the set-up requests;
  /// returns the seconds from launch to the end of set-up.
  double SetUp(ServerProcess* server, const std::vector<size_t>& setup);
  /// Counts outcomes of requests; returns true if all were ok.
  bool Tally(const std::vector<Sample>& samples, const char* what);
  void CheckCount(const MetricsScrape& m, const char* name, int64_t want);
  /// Sets `ok` on each recovery SOLVE sample; returns the STATS requests it
  /// sent the server on `port`.
  int64_t CheckRecovered(int port, const std::vector<std::string>& before,
                         std::vector<std::string>* recovered,
                         std::vector<Sample>* samples);

  Workload* w_;
  std::string bin_;
  std::string root_;

  double setup_s_ = 0.0;
  double recover_s_ = 0.0;
  std::vector<double> setup_steal_;
  std::vector<double> recover_steal_;
  std::vector<HostSample> phase_host_;
  double peak_rss_mb_ = 0.0;
  double server_cpu_s_ = 0.0;
  std::vector<Sample> phase_samples_;
  MetricsScrape phase_metrics_;
  MetricsScrape recovery_metrics_;
  double stored_elements_ = 0.0;
  double coord_bytes_ = 0.0;
};

bool Run::Tally(const std::vector<Sample>& samples, const char* what) {
  int64_t bad = 0;
  for (const Sample& s : samples) {
    ++attempted;
    if (!s.ok) {
      ++bad;
      if (bad == 1) {
        const Request& r = w_->requests[s.request];
        std::fprintf(stderr,
                     "perfbench: %s request %zu (%s) got '%s', want '%s'\n",
                     what, s.request, r.text.substr(0, 48).c_str(),
                     s.reply.substr(0, 80).c_str(),
                     r.expect.substr(0, 80).c_str());
      }
    }
  }
  failed += bad;
  if (bad > 0) Fail(std::string(what) + ": wrong or missing replies");
  return bad == 0;
}

void Run::CheckCount(const MetricsScrape& m, const char* name, int64_t want) {
  const auto got = static_cast<int64_t>(m.Counter(name));
  if (got != want) {
    Fail(std::string(name) + " = " + std::to_string(got) + ", expected " +
         std::to_string(want));
  }
}

int64_t Run::CheckRecovered(int port, const std::vector<std::string>& before,
                            std::vector<std::string>* recovered,
                            std::vector<Sample>* samples) {
  // The server's WAL fsyncs once 256 records are unsynced
  // (WalOptions::sync_every) and holds them in its own buffer until then,
  // so a kill -9 may lose up to 255 acknowledged records. The closing batch
  // forces a sync, unless a WAL segment rotation falls inside it: the
  // rotation syncs, and the batch's records after it stay buffered
  // (`query_mixed` seed 103 lost the last 172 of 124583 census points). A
  // session must answer as before the kill or, when it lost records, lose
  // fewer than 256 and answer as an uninterrupted run over what it kept.
  constexpr int64_t kWalSyncEvery = 256;
  int64_t stats = 0;
  for (Sample& s : *samples) {
    const uint16_t session = w_->requests[s.request].session;
    if (!s.ok || s.reply == before[session]) continue;
    std::string& expect = (*recovered)[session];
    if (expect.empty()) {
      const SessionDef& def = w_->sessions[session];
      const std::string reply = CallOnce(port, "STATS " + def.name);
      ++stats;
      const size_t at = reply.find(" observed=");
      const int64_t kept =
          at == std::string::npos ? -1 : std::atoll(reply.c_str() + at + 10);
      const int64_t lost = def.observed - kept;
      expect = kept >= 0 && lost > 0 && lost < kWalSyncEvery
                   ? SolveAfter(*w_, session, kept)
                   : "ERR recovered " + std::to_string(kept) + " of " +
                         std::to_string(def.observed) + " points";
      std::fprintf(stderr,
                   "perfbench: recovery: %s recovered %lld of %lld points "
                   "(an unsynced WAL tail)\n",
                   def.name.c_str(), static_cast<long long>(kept),
                   static_cast<long long>(def.observed));
    }
    s.ok = s.reply == expect;
    if (!s.ok) {
      std::fprintf(stderr, "perfbench: recovery SOLVE %s got '%s', want '%s'\n",
                   w_->sessions[session].name.c_str(),
                   s.reply.substr(0, 80).c_str(), expect.substr(0, 80).c_str());
    }
  }
  return stats;
}

double Run::SetUp(ServerProcess* server, const std::vector<size_t>& setup) {
  // The filesystem discards what a deletion frees when it commits; commit
  // now, before anything is timed, or the server's first fsyncs wait for it.
  std::filesystem::remove_all(root_);
  ::sync();
  const Clock::time_point launch = Clock::now();
  if (!server->Start(bin_, root_, w_->max_resident)) {
    Fail("server did not start");
    return 0.0;
  }
  std::vector<Sample> samples;
  RunRequests(server->port(), *w_, setup, w_->connections, RunOptions{},
              &samples);
  Tally(samples, "set-up");
  return Seconds(launch, Clock::now());
}

bool Run::Execute() {
  const std::vector<size_t> setup = IndicesOf(*w_, Stage::kSetup);
  const std::vector<size_t> phase = IndicesOf(*w_, Stage::kPhase);
  const std::vector<size_t> closing = IndicesOf(*w_, Stage::kClosing);

  // Set-up (launch, READY, CREATE, preload or warm-up) is timed on fresh
  // servers (see Again); the last one goes on to the phase.
  std::vector<double> setups;
  auto server = std::make_unique<ServerProcess>();
  while (correct && Again(setups)) {
    server = std::make_unique<ServerProcess>();
    const CpuTicks before = ReadCpuTicks();
    setups.push_back(SetUp(server.get(), setup));
    setup_steal_.push_back(StealShare(before, ReadCpuTicks()));
  }
  if (!correct) return false;
  setup_s_ = CleanMedian(setups, setup_steal_);

  // The measured phase.
  RunOptions options;
  options.open_loop = w_->open_loop;
  options.depth = w_->depth;
  options.host = &phase_host_;
  const double cpu_before = server->CpuSeconds();
  RunRequests(server->port(), *w_, phase, w_->connections, options,
              &phase_samples_);
  server_cpu_s_ = server->CpuSeconds() - cpu_before;
  Tally(phase_samples_, "phase");

  // Closing batches and final SOLVEs, then STATS and METRICS.
  RunOptions closed;
  closed.keep_replies = true;
  std::vector<Sample> samples;
  RunRequests(server->port(), *w_, closing, w_->connections, closed, &samples);
  Tally(samples, "closing");
  std::vector<std::string> final_reply(w_->sessions.size());
  for (const Sample& s : samples) {
    const Request& r = w_->requests[s.request];
    if (r.op == Op::kSolve) final_reply[r.session] = s.reply;
  }
  const auto stats = AddPerSession(
      w_, Op::kStats, [](const std::string& n) { return "STATS " + n; },
      [](size_t) { return std::string(); });
  RunRequests(server->port(), *w_, stats, w_->connections, closed, &samples);
  Tally(samples, "stats");
  for (const Sample& s : samples) {
    // stored=<n>, and the dimension from the spec.
    const size_t at = s.reply.find(" stored=");
    const double stored =
        at == std::string::npos ? 0.0 : std::atof(s.reply.c_str() + at + 8);
    const std::string& spec =
        w_->sessions[w_->requests[s.request].session].spec;
    const double dim = std::atof(spec.c_str() + spec.find("dim=") + 4);
    stored_elements_ += stored;
    coord_bytes_ += stored * dim * 8.0;
  }
  phase_metrics_.json = CallOnce(server->port(), "METRICS json");
  if (phase_metrics_.json.rfind("OK {", 0) != 0) Fail("METRICS scrape");
  peak_rss_mb_ = server->PeakRssMb();

  // Request-count and exact-count checks against the reference.
  const ExactCounts& c = w_->counts;
  CheckCount(phase_metrics_, "fdm_net_requests_total", c.requests);
  CheckCount(phase_metrics_, "fdm_ingest_points_observed_total",
             c.points_observed);
  CheckCount(phase_metrics_, "fdm_ingest_points_kept_total", c.points_kept);
  CheckCount(phase_metrics_, "fdm_dedup_rejected_total", c.dedup_rejected);
  CheckCount(phase_metrics_, "fdm_solve_hits_total", c.solve_hits);
  CheckCount(phase_metrics_, "fdm_solve_misses_total", c.solve_misses);
  CheckCount(phase_metrics_, "fdm_session_restores_total", c.restores);
  CheckCount(phase_metrics_, "fdm_net_shed_rate_total", 0);
  CheckCount(phase_metrics_, "fdm_net_shed_cold_total", 0);

  // kill -9, restart, and wait until every session answers SOLVE — over
  // the same on-disk state each time (see Again); the replies are checked
  // after the clock stops (CheckRecovered).
  const auto recover = AddPerSession(
      w_, Op::kSolve, [](const std::string& n) { return "SOLVE " + n; },
      [](size_t) { return std::string(); });
  // One SOLVE at a time on one connection: the server restores a session
  // inside its cold SOLVE on one of two solve workers, and with several in
  // flight which restores share a worker is a race the time would follow.
  for (const size_t idx : recover) w_->requests[idx].conn = 0;
  std::vector<double> recoveries;
  std::vector<std::string> recovered_reply(w_->sessions.size());
  int64_t stats_on_server = 0;  // STATS CheckRecovered sent the last server
  while (correct && Again(recoveries)) {
    const CpuTicks before = ReadCpuTicks();
    const Clock::time_point kill = Clock::now();
    server->Kill();
    server = std::make_unique<ServerProcess>();
    if (!server->Start(bin_, root_, w_->max_resident)) {
      Fail("restarted server did not start");
      return false;
    }
    RunRequests(server->port(), *w_, recover, 1, closed, &samples);
    recoveries.push_back(Seconds(kill, Clock::now()));
    recover_steal_.push_back(StealShare(before, ReadCpuTicks()));
    stats_on_server =
        CheckRecovered(server->port(), final_reply, &recovered_reply, &samples);
    Tally(samples, "recovery");
  }
  recover_s_ = CleanMedian(recoveries, recover_steal_);
  const auto snapshot = AddPerSession(
      w_, Op::kSnapshot, [](const std::string& n) { return "SNAPSHOT " + n; },
      [](size_t) { return std::string("OK\n"); });
  RunRequests(server->port(), *w_, snapshot, w_->connections, closed,
              &samples);
  Tally(samples, "snapshot");
  recovery_metrics_.json = CallOnce(server->port(), "METRICS json");
  CheckCount(recovery_metrics_, "fdm_net_requests_total",
             static_cast<int64_t>(recover.size() + snapshot.size() + 1) +
                 stats_on_server);
  server->Stop(60.0);
  std::filesystem::remove_all(root_);
  return correct;
}

std::vector<Run::Window> Run::Windows() const {
  // Windows of the schedule (by due time) in an open loop. A closed loop
  // is one window, up to the last reply of the connection that ran out of
  // requests first: its sessions have fixed work and finish at different
  // times, and the tail where fewer connections remain (`ingest_bulk`: 1 to
  // 3 s at a quarter to a half of the full rate, a span that varied from
  // run to run) says which session came last, not how fast the server is.
  double horizon = w_->phase_s;
  if (!w_->open_loop) {
    std::vector<double> last(static_cast<size_t>(w_->connections), 0.0);
    for (const Sample& s : phase_samples_) {
      double& t = last[w_->requests[s.request].conn];
      t = std::max(t, s.done_s);
    }
    horizon = *std::min_element(last.begin(), last.end());
    if (horizon <= 0.0) return {};  // a connection failed before any reply
  }
  size_t observes = 0;
  for (const Sample& s : phase_samples_) {
    observes += w_->requests[s.request].op != Op::kSolve;
  }
  const size_t fewest = std::min(observes, phase_samples_.size() - observes);
  const size_t n =
      w_->open_loop ? std::max<size_t>(
                          1, std::min(static_cast<size_t>(horizon / kWindowS),
                                      fewest / kWindowSamples))
                    : 1;
  std::vector<Window> windows(n);
  for (size_t i = 0; i < n; ++i) {
    windows[i].start_s = horizon * static_cast<double>(i) / static_cast<double>(n);
  }
  for (const Sample& s : phase_samples_) {
    const Request& r = w_->requests[s.request];
    const double t = w_->open_loop ? s.due_s : s.done_s;
    if (!w_->open_loop && t > horizon) continue;
    Window& win = windows[std::min(
        n - 1, static_cast<size_t>(t / horizon * static_cast<double>(n)))];
    const double ms = s.ok ? (s.done_s - s.due_s) * 1e3 : kInf;
    (r.op == Op::kSolve ? win.solve_ms : win.observe_ms).push_back(ms);
    win.late_ms.push_back((s.sent_s - s.due_s) * 1e3);
    if (s.ok && r.op != Op::kSolve) win.points += r.count;
    win.last_ack_s = std::max(win.last_ack_s, s.done_s);
  }
  for (size_t i = 0; i < n; ++i) {
    const double end = i + 1 < n ? windows[i + 1].start_s : horizon;
    windows[i].steal = StealBetween(phase_host_, windows[i].start_s, end);
  }
  return windows;
}

double Run::OverWindows(const std::function<double(const Window&)>& f) const {
  std::vector<double> values;
  std::vector<double> steal;
  for (const Window& win : Windows()) {
    values.push_back(f(win));
    steal.push_back(win.steal);
  }
  return CleanMedian(values, steal);
}

std::vector<Metric> Run::Tails() const {
  // Pooled over the windows that count, so the p90 has ten or more samples
  // beyond it.
  const std::vector<Window> windows = Windows();
  std::vector<double> steal;
  for (const Window& win : windows) steal.push_back(win.steal);
  std::vector<double> observe_ms;
  std::vector<double> solve_ms;
  for (const size_t i : Counted(steal)) {
    const Window& win = windows[i];
    observe_ms.insert(observe_ms.end(), win.observe_ms.begin(),
                      win.observe_ms.end());
    solve_ms.insert(solve_ms.end(), win.solve_ms.begin(), win.solve_ms.end());
  }
  return {
      {"observe_p90_ms", Percentile(observe_ms, 0.9), "ms"},
      {"solve_p90_ms", Percentile(solve_ms, 0.9), "ms"},
  };
}

std::vector<Metric> Run::EndToEnd() const {
  auto over = [this](auto&& f) { return OverWindows(f); };
  return {
      {"setup_s", setup_s_, "s"},
      {"ingest_pts_per_s",
       over([](const Window& w) {
         // Up to the window's last acknowledgement: a measured time, so an
         // open loop's rate shows how far the server fell behind it.
         return w.points / std::max(1e-9, w.last_ack_s - w.start_s);
       }),
       "points/s"},
      {"observe_p50_ms",
       over([](const Window& w) { return Percentile(w.observe_ms, 0.5); }),
       "ms"},
      {"solve_p50_ms",
       over([](const Window& w) { return Percentile(w.solve_ms, 0.5); }), "ms"},
      {"server_cpu_s", server_cpu_s_, "s"},
      {"peak_rss_mb", peak_rss_mb_, "MiB"},
      {"recover_s", recover_s_, "s"},
  };
}

std::vector<Metric> Run::PerLayer(const TraceNumbers& t) const {
  const MetricsScrape& a = phase_metrics_;    // the phase server
  const MetricsScrape& b = recovery_metrics_;  // the last restarted server
  auto ratio = [](double x, double y) { return y > 0 ? x / y : 0.0; };
  // Restores, snapshots and replays happen on both servers (spill churn on
  // the first, recovery and the SNAPSHOT sweep on the last): pool them.
  auto pooled_mean_ms = [&](const char* hist) {
    return ratio(a.HistSum(hist) + b.HistSum(hist),
                 a.HistCount(hist) + b.HistCount(hist)) / 1e6;
  };
  auto pooled = [&](const char* counter) {
    return a.Counter(counter) + b.Counter(counter);
  };
  double e2e_observe_p50 = 0.0;
  double e2e_solve_p50 = 0.0;
  double e2e_ingest = 0.0;
  for (const Metric& m : EndToEnd()) {
    if (m.name == "observe_p50_ms") e2e_observe_p50 = m.value;
    if (m.name == "solve_p50_ms") e2e_solve_p50 = m.value;
    if (m.name == "ingest_pts_per_s") e2e_ingest = m.value;
  }
  std::vector<double> late;
  for (const Sample& s : phase_samples_) late.push_back((s.sent_s - s.due_s) * 1e3);
  std::vector<double> window_steal;
  for (const Window& win : Windows()) window_steal.push_back(win.steal);
  const double hits = a.Counter("fdm_solve_hits_total");
  const double misses = a.Counter("fdm_solve_misses_total");
  const double observed = a.Counter("fdm_ingest_points_observed_total");
  std::vector<Metric> out = Tails();
  const std::vector<Metric> layers = {
      {"ops_failed_frac",
       ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "fraction"},
      {"gen.late_p99_ms", Percentile(late, 0.99), "ms"},
      {"gen.late_max_ms", Percentile(late, 1.0), "ms"},
      {"host.steal_pct", 100.0 * PhaseSteal(), "%"},
      {"host.clean_window_frac",
       ratio(static_cast<double>(CountClean(window_steal)),
             static_cast<double>(window_steal.size())),
       "ratio"},
      {"net.rtt_self_us", t.rtt_self_us, "us"},
      {"net.bytes_in_per_pt",
       ratio(a.Counter("fdm_net_bytes_in_total"),
             observed + a.Counter("fdm_dedup_rejected_total")),
       "bytes"},
      {"net.shed_total",
       a.Counter("fdm_net_shed_rate_total") +
           a.Counter("fdm_net_shed_cold_total"),
       "count"},
      {"dispatch.parse_self_us_per_pt", t.parse_self_us_per_pt, "us"},
      {"dispatch.solve_self_us", t.dispatch_solve_self_us, "us"},
      {"session.ingest_self_us_per_pt", t.session_ingest_self_us_per_pt, "us"},
      {"session.solve_cached_us", t.session_solve_cached_us, "us"},
      {"session.ingest_scaling", ratio(e2e_ingest, 4.0 * t.tcp_pts_per_s),
       "ratio"},
      {"session.restores", a.Counter("fdm_session_restores_total"), "count"},
      {"session.restore_ms", pooled_mean_ms("fdm_session_restore_ns"), "ms"},
      {"durable.snapshot_ms", t.snapshot_ms, "ms"},
      {"durable.open_ms", t.open_ms, "ms"},
      {"snapshot.write_ms", pooled_mean_ms("fdm_snapshot_write_ns"), "ms"},
      {"snapshot.bytes_per_snap",
       ratio(pooled("fdm_snapshot_bytes_total"),
             a.HistCount("fdm_snapshot_write_ns") +
                 b.HistCount("fdm_snapshot_write_ns")),
       "bytes"},
      {"wal.append_us_per_pt", t.wal_append_us_per_pt, "us"},
      {"wal.fsyncs", a.HistCount("fdm_wal_fsync_ns"), "count"},
      {"wal.fsync_mean_us", ratio(a.HistSum("fdm_wal_fsync_ns"),
                                  a.HistCount("fdm_wal_fsync_ns")) / 1e3,
       "us"},
      {"wal.bytes_per_pt",
       ratio(a.Counter("fdm_wal_append_bytes_total"),
             a.Counter("fdm_wal_append_records_total")),
       "bytes"},
      {"wal.replay_ms",
       (a.HistSum("fdm_wal_replay_ns") + b.HistSum("fdm_wal_replay_ns")) / 1e6,
       "ms"},
      {"wal.replay_records", pooled("fdm_wal_replay_records_total"), "count"},
      {"dedup.probe_ns", t.dedup_probe_ns, "ns"},
      {"dedup.reject_ratio",
       ratio(a.Counter("fdm_dedup_rejected_total"),
             a.Counter("fdm_dedup_checked_total")),
       "ratio"},
      {"sink.observe_us_per_pt", t.sink_observe_us_per_pt, "us"},
      {"sink.admit_ratio",
       ratio(a.Counter("fdm_ingest_points_kept_total"), observed), "ratio"},
      {"sink.rung_scan_ns", ratio(a.HistSum("fdm_ingest_rung_scan_ns"),
                                  a.HistCount("fdm_ingest_rung_scan_ns")),
       "ns"},
      {"sink.stored_elements", stored_elements_, "count"},
      {"sink.coord_bytes", coord_bytes_, "bytes"},
      {"solve.cold_p50_ms", t.solve_cold_p50_ms, "ms"},
      {"solve.cold_p99_ms", t.solve_cold_p99_ms, "ms"},
      {"solve.server_cold_ms", ratio(a.HistSum("fdm_solve_cold_ns"),
                                     a.HistCount("fdm_solve_cold_ns")) / 1e6,
       "ms"},
      {"solve_cache.hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"kernel.min_scans", a.Counter("fdm_kernel_min_scans_total"), "count"},
      {"kernel.many_scans", a.Counter("fdm_kernel_many_scans_total"), "count"},
      {"kernel.dists_scans", a.Counter("fdm_kernel_dists_scans_total"),
       "count"},
      {"trace.tcp_pts_per_s", t.tcp_pts_per_s, "points/s"},
      {"trace.overhead_observe_p50_ms", t.tcp_observe_p50_ms - e2e_observe_p50,
       "ms"},
      {"trace.overhead_solve_p50_ms", t.tcp_solve_p50_ms - e2e_solve_p50,
       "ms"},
  };
  out.insert(out.end(), layers.begin(), layers.end());
  return out;
}

std::string Run::Summary() const {
  const std::vector<Window> windows = Windows();
  size_t observes = 0;
  size_t solves = 0;
  std::vector<double> late;
  std::vector<double> steal;
  for (const Window& win : windows) {
    observes += win.observe_ms.size();
    solves += win.solve_ms.size();
    late.insert(late.end(), win.late_ms.begin(), win.late_ms.end());
    steal.push_back(win.steal);
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "phase: %zu OBSERVE/OBSERVEB and %zu SOLVE samples in %zu "
                "window(s), %zu with steal <= %.0f%% (metrics are medians "
                "over those); steal %.2f%% over the phase; set-ups clean "
                "%zu/%zu, recoveries clean %zu/%zu; generator late p99 "
                "%.3f ms, max %.3f ms; %.0f WAL fsyncs, mean %.0f us; "
                "kernel %s",
                observes, solves, windows.size(), CountClean(steal),
                100.0 * kMaxSteal, 100.0 * PhaseSteal(),
                CountClean(setup_steal_), setup_steal_.size(),
                CountClean(recover_steal_), recover_steal_.size(),
                Percentile(late, 0.99), Percentile(late, 1.0),
                phase_metrics_.HistCount("fdm_wal_fsync_ns"),
                phase_metrics_.HistMean("fdm_wal_fsync_ns") / 1e3,
                phase_metrics_.Info("fdm_kernel_target").c_str());
  return buf;
}

std::string Json(const std::vector<Metric>& metrics, bool correct,
                 int64_t attempted, int64_t failed) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    // %.17g keeps every digit; a non-finite value (a failed percentile)
    // is written as a huge finite number so the line stays valid JSON.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 1e300;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

int Main(int argc, char** argv) {
  const fdm::ArgParser args(argc, argv);
  const std::string name = args.GetString("workload", "");
  const auto seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const double seconds = args.GetDouble("seconds", 10.0);
  const bool trace = args.GetInt("trace", 0) != 0;
  const std::string bin = args.GetString("server", "");
  const std::string workdir = args.GetString("workdir", "");
  if (bin.empty() || workdir.empty() || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_gen --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --server=PATH --workdir=DIR\n");
    return 2;
  }
  const Clock::time_point t0 = Clock::now();
  auto w = MakeWorkload(name, seed, seconds);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: cannot build workload '%s'\n",
                 name.c_str());
    return 2;
  }
  std::fprintf(stderr, "perfbench: %s seed=%llu: %zu requests, %lld phase "
               "points, generated in %.1f s\n",
               name.c_str(), static_cast<unsigned long long>(seed),
               w->requests.size(), static_cast<long long>(w->phase_points),
               Seconds(t0, Clock::now()));
  const std::string base = workdir + "/" + name + "-" + std::to_string(getpid());
  Run run(w.get(), bin, base + "/serve");
  run.Execute();

  std::vector<Metric> metrics = run.EndToEnd();
  std::printf("workload %s seed %llu: %s\n", name.c_str(),
              static_cast<unsigned long long>(seed),
              run.correct ? "outputs match the reference" : "CHECK FAILED");
  if (trace) {
    const std::string spans =
        workdir + "/spans-" + name + "-" + std::to_string(seed) + ".tsv";
    const TraceNumbers t = TracedReplay(*w, bin, base + "/trace", spans);
    if (!t.ok) {
      std::fprintf(stderr, "perfbench: FAIL traced replay: %s\n",
                   t.error.c_str());
      run.correct = false;
    }
    std::printf("traced replay: %zu spans written to %s\n", t.spans,
                spans.c_str());
    metrics = run.PerLayer(t);
  }
  std::filesystem::remove_all(base);
  std::printf("%s\n", run.Summary().c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n",
              Json(metrics, run.correct, run.attempted, run.failed).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
