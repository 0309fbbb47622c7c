#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "client.h"
#include "core/solve_cache.h"
#include "net/dispatch.h"
#include "net/net_client.h"
#include "service/dedup_filter.h"
#include "service/durable_session.h"
#include "service/session_manager.h"
#include "service/sink_spec.h"
#include "service/wal.h"
#include "util/timer.h"

namespace perfbench {
namespace {

struct Span {
  const char* layer;
  const char* parent;  // the layer whose call encloses this one
  size_t request;      // request id shared by every layer's span
  double start_us;
  double end_us;
  double us() const { return end_us - start_us; }
};

class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  template <typename Fn>
  auto Time(const char* layer, const char* parent, size_t request, Fn&& fn) {
    const double start = Now();
    auto result = fn();
    spans_.push_back({layer, parent, request, start, Now()});
    return result;
  }

  const std::vector<Span>& spans() const { return spans_; }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "layer\tparent\trequest\tstart_us\tend_us\n";
    char line[160];
    for (const Span& s : spans_) {
      std::snprintf(line, sizeof(line), "%s\t%s\t%zu\t%.3f\t%.3f\n", s.layer,
                    s.parent, s.request, s.start_us, s.end_us);
      out << line;
    }
    return static_cast<bool>(out);
  }

 private:
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

bool IsIngest(Op op) { return op == Op::kObserve || op == Op::kObserveB; }

std::string IngestReply(const Request& r, const fdm::IngestOutcome& o) {
  if (r.op == Op::kObserve) return o.duplicates > 0 ? "OK dup=1\n" : "OK\n";
  return "OK kept=" + std::to_string(o.accepted) +
         " dup=" + std::to_string(o.duplicates) + "\n";
}

std::unique_ptr<fdm::SessionManager> NewManager(const Workload& w,
                                                const std::string& root) {
  fdm::SessionManagerOptions options;
  options.root_dir = root;
  options.max_resident = w.max_resident;
  auto made = fdm::SessionManager::Create(options);
  return made.ok() ? std::move(made.value()) : nullptr;
}

/// Span time of one layer per request id, microseconds (0 = no span).
std::vector<double> ByRequest(const Tracer& t, const char* layer, size_t n) {
  std::vector<double> out(n, 0.0);
  for (const Span& s : t.spans()) {
    if (s.layer == layer) out[s.request] += s.us();
  }
  return out;
}

constexpr const char* kNet = "net";
constexpr const char* kDispatch = "dispatch";
constexpr const char* kSession = "session";
constexpr const char* kDedup = "dedup";
constexpr const char* kWal = "wal";
constexpr const char* kSink = "sink";
constexpr const char* kSolveCache = "solve_cache";

}  // namespace

TraceNumbers TracedReplay(const Workload& w, const std::string& server_bin,
                          const std::string& workdir,
                          const std::string& spans_path) {
  TraceNumbers out;
  Tracer tracer;
  const size_t n = w.generated;
  auto fail = [&out](std::string why) {
    if (out.ok) out.error = std::move(why);
    out.ok = false;
  };
  std::filesystem::remove_all(workdir);
  std::filesystem::create_directories(workdir);

  // Layer 1: TCP, one NetClient, one request at a time.
  {
    ServerProcess server;
    if (!server.Start(server_bin, workdir + "/net", w.max_resident)) {
      fail("traced server did not start");
      return out;
    }
    auto client = fdm::net::NetClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) {
      fail("traced connect failed");
      return out;
    }
    for (size_t i = 0; i < n && out.ok; ++i) {
      const Request& r = w.requests[i];
      const auto reply = tracer.Time(kNet, "", i,
                                     [&] { return client->Call(r.text); });
      if (!reply.ok() || *reply != r.expect) fail("TCP reply differs: " + r.text.substr(0, 40));
    }
    server.Stop(30.0);
  }

  // Layer 2: the dispatcher in-process.
  {
    auto sessions = NewManager(w, workdir + "/dispatch");
    if (sessions == nullptr) {
      fail("dispatcher manager");
      return out;
    }
    fdm::net::RequestDispatcher dispatcher(sessions.get(),
                                           workdir + "/dispatch");
    std::string reply;
    for (size_t i = 0; i < n && out.ok; ++i) {
      const Request& r = w.requests[i];
      const size_t nl = r.text.find('\n');
      const std::string line = r.text.substr(0, nl);
      fdm::net::StringLineSource payload(
          nl == std::string::npos ? std::string_view()
                                  : std::string_view(r.text).substr(nl + 1));
      reply.clear();
      tracer.Time(kDispatch, kNet, i, [&] {
        return dispatcher.HandleRequest(line, payload, &reply);
      });
      if (reply != r.expect) fail("dispatch reply differs: " + line.substr(0, 40));
    }
  }

  // Layer 3: SessionManager, plus cached-SOLVE probes and snapshot/open.
  std::vector<double> cached_us;
  {
    const std::string root = workdir + "/session";
    auto sessions = NewManager(w, root);
    if (sessions == nullptr) {
      fail("session manager");
      return out;
    }
    for (size_t i = 0; i < n && out.ok; ++i) {
      const Request& r = w.requests[i];
      const std::string& name = w.sessions[r.session].name;
      std::string reply;
      if (r.op == Op::kCreate) {
        const fdm::Status s =
            sessions->CreateSession(name, w.sessions[r.session].spec);
        reply = s.ok() ? "OK\n" : "ERR\n";
      } else if (IsIngest(r.op)) {
        const auto points = PointsOf(w, r);
        const auto outcome = tracer.Time(kSession, kDispatch, i, [&] {
          return sessions->Ingest(name, points, r.op == Op::kObserveB);
        });
        reply = outcome.ok() ? IngestReply(r, *outcome) : "ERR\n";
      } else {
        const auto solution = tracer.Time(kSession, kDispatch, i,
                                          [&] { return sessions->Solve(name); });
        reply = solution.ok() ? SolveReply(*solution) : "ERR\n";
        if (r.solve_hit) cached_us.push_back(tracer.spans().back().us());
      }
      if (reply != r.expect) fail("session reply differs: " + r.text.substr(0, 40));
    }
    std::vector<double> snapshot_ms;
    std::vector<double> open_ms;
    for (const SessionDef& s : w.sessions) {
      // Probes of the cache-hit path, and one snapshot + reopen each.
      for (int k = 0; k < 50; ++k) {
        const fdm::Timer t;
        if (!sessions->Solve(s.name).ok()) fail("probe SOLVE");
        if (k > 0) cached_us.push_back(t.ElapsedSeconds() * 1e6);
      }
      const fdm::Timer snap;
      if (!sessions->Snapshot(s.name).ok()) fail("snapshot");
      snapshot_ms.push_back(snap.ElapsedSeconds() * 1e3);
      if (!sessions->DropResident(s.name).ok()) fail("drop");
      const fdm::Timer open;
      if (!fdm::DurableSession::Open(root + "/" + s.name).ok()) fail("open");
      open_ms.push_back(open.ElapsedSeconds() * 1e3);
    }
    out.snapshot_ms = Median(snapshot_ms);
    out.open_ms = Median(open_ms);
  }

  // Layer 4: the parts under a session, on the same points.
  std::vector<double> cold_ms;
  double dedup_points = 0.0;
  double fresh_points = 0.0;
  {
    struct Parts {
      std::unique_ptr<fdm::StreamSink> sink;
      fdm::SolveCache cache;
      std::unique_ptr<fdm::WriteAheadLog> wal;
      fdm::DedupFilter dedup;
    };
    std::vector<std::unique_ptr<Parts>> parts;
    for (const SessionDef& s : w.sessions) {
      auto p = std::make_unique<Parts>();
      auto sink = fdm::MakeSinkFromSpec(s.spec);
      auto wal = fdm::WriteAheadLog::Open(workdir + "/parts/" + s.name);
      if (!sink.ok() || !wal.ok()) {
        fail("parts setup");
        return out;
      }
      p->sink = std::move(sink.value());
      p->wal = std::make_unique<fdm::WriteAheadLog>(std::move(wal.value()));
      parts.push_back(std::move(p));
    }
    for (size_t i = 0; i < n && out.ok; ++i) {
      const Request& r = w.requests[i];
      Parts& p = *parts[r.session];
      if (IsIngest(r.op)) {
        const auto points = PointsOf(w, r);
        // Every session's ids go through a filter (only dedup=on sessions
        // ever carry duplicates, so the stream is unchanged elsewhere).
        // Reserved outside the span, so it times the probes alone.
        std::vector<fdm::StreamPoint> fresh;
        fresh.reserve(points.size());
        tracer.Time(kDedup, kSession, i, [&] {
          for (const fdm::StreamPoint& pt : points) {
            if (p.dedup.InsertIfAbsent(pt.id)) fresh.push_back(pt);
          }
          return fresh.size();
        });
        dedup_points += static_cast<double>(points.size());
        if (fresh.empty()) continue;
        fresh_points += static_cast<double>(fresh.size());
        const fdm::Status appended = tracer.Time(kWal, kSession, i, [&] {
          return r.op == Op::kObserve ? p.wal->Append(fresh[0])
                                      : p.wal->AppendBatch(fresh);
        });
        if (!appended.ok()) fail("WAL append");
        tracer.Time(kSink, kSession, i, [&] {
          return r.op == Op::kObserve ? size_t{p.sink->Observe(fresh[0])}
                                      : p.sink->ObserveBatch(fresh);
        });
      } else if (r.op == Op::kSolve) {
        const uint64_t misses = p.cache.GetStats().misses;
        const auto solution = tracer.Time(kSolveCache, kSession, i, [&] {
          const fdm::StreamSink& sink = *p.sink;
          return p.cache.GetOrCompute(sink.StateVersion(),
                                      [&sink] { return sink.Solve(); });
        });
        if (p.cache.GetStats().misses != misses) {
          cold_ms.push_back(tracer.spans().back().us() / 1e3);
        }
        if (!solution.ok() || SolveReply(*solution) != r.expect) {
          fail("bare sink reply differs");
        }
      }
    }
  }
  std::filesystem::remove_all(workdir);

  // Self times, over the measured phase's requests.
  const auto net = ByRequest(tracer, kNet, n);
  const auto dispatch = ByRequest(tracer, kDispatch, n);
  const auto session = ByRequest(tracer, kSession, n);
  const auto dedup = ByRequest(tracer, kDedup, n);
  const auto wal = ByRequest(tracer, kWal, n);
  const auto sink = ByRequest(tracer, kSink, n);
  std::vector<double> rtt_self;
  std::vector<double> solve_self;
  std::vector<double> tcp_observe_ms;
  std::vector<double> tcp_solve_ms;
  double parse_self = 0.0;
  double session_self = 0.0;
  double points = 0.0;
  double tcp_ingest_us = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const Request& r = w.requests[i];
    if (r.stage != Stage::kPhase) continue;
    rtt_self.push_back(net[i] - dispatch[i]);
    if (IsIngest(r.op)) {
      parse_self += dispatch[i] - session[i];
      session_self += session[i] - dedup[i] - wal[i] - sink[i];
      points += r.count;
      tcp_ingest_us += net[i];
      tcp_observe_ms.push_back(net[i] / 1e3);
    } else {
      solve_self.push_back(dispatch[i] - session[i]);
      tcp_solve_ms.push_back(net[i] / 1e3);
    }
  }
  double wal_us = 0.0;
  double sink_us = 0.0;
  double dedup_us = 0.0;
  for (size_t i = 0; i < n; ++i) {
    wal_us += wal[i];
    sink_us += sink[i];
    dedup_us += dedup[i];
  }
  out.rtt_self_us = Median(rtt_self);
  out.dispatch_solve_self_us = Median(solve_self);
  out.parse_self_us_per_pt = points > 0 ? parse_self / points : 0.0;
  out.session_ingest_self_us_per_pt = points > 0 ? session_self / points : 0.0;
  out.session_solve_cached_us = Median(cached_us);
  out.wal_append_us_per_pt = fresh_points > 0 ? wal_us / fresh_points : 0.0;
  out.sink_observe_us_per_pt = fresh_points > 0 ? sink_us / fresh_points : 0.0;
  out.dedup_probe_ns = dedup_points > 0 ? dedup_us * 1e3 / dedup_points : 0.0;
  out.solve_cold_p50_ms = Percentile(cold_ms, 0.5);
  out.solve_cold_p99_ms = Percentile(cold_ms, 0.99);
  out.tcp_pts_per_s = tcp_ingest_us > 0 ? points / (tcp_ingest_us / 1e6) : 0.0;
  out.tcp_observe_p50_ms = Median(tcp_observe_ms);
  out.tcp_solve_p50_ms = Median(tcp_solve_ms);
  out.spans = tracer.spans().size();
  if (!tracer.Write(spans_path)) fail("cannot write spans to " + spans_path);
  return out;
}

}  // namespace perfbench
