#include "net/dispatch.h"

#include <concepts>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "net/text_cursor.h"
#include "obs/metrics.h"
#include "replica/replica_manager.h"
#include "replica/replication_source.h"
#include "service/durable_session.h"
#include "service/session_manager.h"
#include "util/stringutil.h"
#include "util/timer.h"

namespace fdm::net {
namespace {

obs::Counter& RequestsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_net_requests_total", "Requests dispatched (all transports)");
  return c;
}

obs::Histogram& ParseHist() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "fdm_dispatch_parse_ns",
      "latency of turning one OBSERVE/OBSERVEB request's text into points");
  return h;
}

/// Session names are path components, mirroring `SessionManager`'s rule —
/// the replication verbs resolve names under root_dir and must never walk
/// out of it.
bool ValidSessionName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  if (name[0] == '.') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void ReplyStatus(const Status& status, std::string* out) {
  if (status.ok()) {
    out->append("OK\n");
  } else {
    out->append("ERR ").append(status.ToString()).append("\n");
  }
}

/// Reply fields ` key=value`, printed as `<<` prints them.
template <std::integral Int>
void AppendField(std::string_view key, Int value, std::string* out) {
  out->append(key).append(std::to_string(value));
}
void AppendField(std::string_view key, double value, std::string* out) {
  out->append(key);
  AppendDouble(value, out);
}
void AppendField(std::string_view key, std::string_view value,
                 std::string* out) {
  out->append(key).append(value);
}

void AppendIds(const Solution& solution, std::string* out) {
  // `%.6g`, as `<<` prints it, not std::to_string: the latter pads
  // doubles to six decimals and would silently change every SOLVE reply.
  AppendField("div=", solution.diversity, out);
  out->append(" ids=");
  const auto ids = solution.Ids();
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->append(std::to_string(ids[i]));
  }
}

/// OBSERVEB's announced point lines, parsed: coordinates in one array,
/// points viewing into it.
struct ParsedBatch {
  std::vector<double> coords;
  std::vector<StreamPoint> points;
};

/// Parses the `n` point lines of an OBSERVEB. Returns "" on success, else
/// the error. A malformed line fails the whole batch (nothing is applied
/// — a batch is one request), but the remaining lines are still consumed
/// so the stream stays in command framing.
std::string ParseBatch(int64_t n, LineSource& payload, ParsedBatch* batch) {
  std::vector<int64_t> ids;
  std::vector<int32_t> groups;
  std::vector<size_t> offsets;  // per-point start into `coords`
  std::vector<double>& coords = batch->coords;
  std::string error;
  std::string_view point_line;
  for (int64_t i = 0; i < n; ++i) {
    if (!payload.NextLine(&point_line)) {
      error = "stream ended mid-batch";
      break;
    }
    if (!error.empty()) continue;  // draining after a bad line
    TextCursor pin(point_line);
    int64_t id = -1;
    int32_t group = 0;
    const size_t start = coords.size();
    const std::string_view reason = ParsePointFields(pin, &id, &group, &coords);
    if (!reason.empty()) {
      error = "batch line " + std::to_string(i) + " ";
      error.append(reason);
      continue;
    }
    ids.push_back(id);
    groups.push_back(group);
    offsets.push_back(start);
  }
  if (!error.empty()) return error;
  // Spans are built only now: `coords` no longer reallocates.
  offsets.push_back(coords.size());
  batch->points.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    batch->points.push_back(StreamPoint{
        ids[i], groups[i],
        std::span<const double>(coords.data() + offsets[i],
                                offsets[i + 1] - offsets[i])});
  }
  return error;
}

}  // namespace

bool StringLineSource::NextLine(std::string_view* line) {
  if (rest_.empty()) return false;
  const size_t nl = rest_.find('\n');
  if (nl == std::string_view::npos) {
    *line = rest_;
    rest_ = {};
  } else {
    *line = rest_.substr(0, nl);
    rest_.remove_prefix(nl + 1);
  }
  return true;
}

bool StreamLineSource::NextLine(std::string_view* line) {
  if (!std::getline(in_, line_)) return false;
  *line = line_;
  return true;
}

RequestDispatcher::RequestDispatcher(SessionManager* sessions,
                                     std::string root_dir)
    : sessions_(sessions), root_dir_(std::move(root_dir)) {}

RequestDispatcher::RequestDispatcher(ReplicaManager* replicas,
                                     std::string primary_root)
    : replicas_(replicas), root_dir_(std::move(primary_root)) {}

RequestDispatcher::~RequestDispatcher() = default;

RequestInfo RequestDispatcher::Classify(std::string_view line) const {
  RequestInfo info;
  TextCursor in(line);
  info.verb = in.Word();
  if (info.verb.empty()) return info;  // blank line
  if (info.verb == "LIST" || info.verb == "METRICS" || info.verb == "QUIT") {
    return info;
  }
  info.session = in.Word();
  if (info.session.empty()) return info;
  if (info.verb == "OBSERVEB") {
    int64_t n = 0;
    if (in.Int64(&n) && n > 0) info.payload_lines = n;
  } else if (info.verb == "SOLVE") {
    info.cold_solve = sessions_ != nullptr
                          ? !sessions_->SolveLikelyCached(info.session)
                          : !replicas_->SolveLikelyCached(info.session);
  }
  return info;
}

// Every no-payload verb checks `in.AtEnd()`: `METRICS json garbage` or
// `SOLVE s extra` is a framing bug on the client side, and silently
// accepting it on some verbs while OBSERVEB strictly rejects it taught
// clients nothing.
RequestOutcome RequestDispatcher::HandleRequest(std::string_view line,
                                                LineSource& payload,
                                                std::string* out) {
  TextCursor in(line);
  const std::string_view command = in.Word();
  if (command.empty()) return RequestOutcome::kReply;  // blank line
  RequestsCounter().Inc();
  return sessions_ != nullptr ? HandlePrimary(command, in, payload, out)
                              : HandleFollower(command, in, payload, out);
}

bool RequestDispatcher::HandleMetricsVerb(std::string_view command,
                                          TextCursor& in, std::string* out) {
  if (command != "METRICS") return false;
  const std::string_view mode = in.Word();
  if (mode == "json" && in.AtEnd()) {
    out->append("OK ")
        .append(obs::MetricsRegistry::Global().RenderJson())
        .append("\n");
  } else if (mode.empty()) {
    out->append(obs::MetricsRegistry::Global().RenderPrometheus());
    out->append("OK\n");
  } else {
    out->append("ERR METRICS takes no argument or 'json'\n");
  }
  return true;
}

void RequestDispatcher::HandleReplicationVerb(std::string_view command,
                                              const std::string& name,
                                              TextCursor& in,
                                              std::string* out) {
  if (!ValidSessionName(name)) {
    out->append("ERR invalid session name\n");
    return;
  }
  int64_t seq = 0;
  if (command != "RMANIFEST") {
    if (!in.Int64(&seq) || !in.AtEnd()) {
      out->append("ERR ").append(command).append(" requires <name> <seq>\n");
      return;
    }
  } else if (!in.AtEnd()) {
    out->append("ERR RMANIFEST takes only a session name\n");
    return;
  }
  std::lock_guard<std::mutex> lock(repl_mu_);
  auto it = repl_sources_.find(name);
  if (it == repl_sources_.end()) {
    const std::string dir = root_dir_ + "/" + name;
    if (!DurableSession::Exists(dir)) {
      out->append("ERR no session named '").append(name).append("'\n");
      return;
    }
    it = repl_sources_
             .emplace(name, std::make_unique<DirReplicationSource>(dir))
             .first;
  }
  ReplicationSource& source = *it->second;
  if (command == "RMANIFEST") {
    auto manifest = source.GetManifest();
    if (!manifest.ok()) {
      out->append("ERR ").append(manifest.status().ToString()).append("\n");
      return;
    }
    out->append("OK primary_seq=")
        .append(std::to_string(manifest->primary_seq));
    out->append(" version=").append(std::to_string(manifest->primary_version));
    out->append(" advert_seq=").append(std::to_string(manifest->advert_seq));
    out->append(" snapshots=");
    if (manifest->snapshots.empty()) out->push_back('-');
    for (size_t i = 0; i < manifest->snapshots.size(); ++i) {
      const ReplicaSnapshotInfo& s = manifest->snapshots[i];
      if (i > 0) out->push_back(',');
      out->append(std::to_string(s.seq))
          .append(":")
          .append(std::to_string(s.bytes))
          .append(":")
          .append(std::to_string(s.checksum));
    }
    out->append(" segments=");
    if (manifest->segments.empty()) out->push_back('-');
    for (size_t i = 0; i < manifest->segments.size(); ++i) {
      const WalSegmentInfo& s = manifest->segments[i];
      if (i > 0) out->push_back(',');
      out->append(std::to_string(s.first_seq))
          .append(":")
          .append(std::to_string(s.bytes))
          .append(":")
          .append(std::to_string(s.checksum));
    }
    // The spec goes last and runs to end of line: it contains spaces.
    out->append(" spec=").append(manifest->spec).append("\n");
    return;
  }
  auto bytes = command == "RFETCHSNAP" ? source.FetchSnapshot(seq)
                                       : source.FetchWalSegment(seq);
  if (!bytes.ok()) {
    out->append("ERR ").append(bytes.status().ToString()).append("\n");
    return;
  }
  // Binary reply: a one-line header announcing the byte count, the raw
  // bytes, then a newline to restore line discipline. Over TCP the whole
  // reply is one length-delimited frame; over stdin the client reads
  // exactly `bytes=` bytes after the header line.
  out->append("OK bytes=").append(std::to_string(bytes->size())).append("\n");
  out->append(*bytes);
  out->push_back('\n');
}

RequestOutcome RequestDispatcher::HandlePrimary(std::string_view command,
                                                TextCursor& in,
                                                LineSource& payload,
                                                std::string* out) {
  SessionManager& sessions = *sessions_;
  if (command == "QUIT") {
    if (!in.AtEnd()) {
      out->append("ERR QUIT takes no arguments\n");
      return RequestOutcome::kReply;
    }
    ReplyStatus(sessions.SnapshotAll(), out);
    return RequestOutcome::kQuit;
  }
  if (HandleMetricsVerb(command, in, out)) return RequestOutcome::kReply;
  if (command == "LIST") {
    if (!in.AtEnd()) {
      out->append("ERR LIST takes no arguments\n");
      return RequestOutcome::kReply;
    }
    out->append("OK");
    for (const std::string& name : sessions.SessionNames()) {
      out->push_back(' ');
      out->append(name);
    }
    out->push_back('\n');
    return RequestOutcome::kReply;
  }

  const std::string name(in.Word());
  if (name.empty()) {
    out->append("ERR ").append(command).append(" requires a session name\n");
    return RequestOutcome::kReply;
  }
  if (command == "CREATE") {
    ReplyStatus(sessions.CreateSession(name, std::string(Trim(in.Rest()))),
                out);
  } else if (command == "OBSERVE") {
    const Timer parse_timer;
    int64_t id = -1;
    int32_t group = 0;
    std::vector<double> coords;
    const std::string_view error = ParsePointFields(in, &id, &group, &coords);
    ParseHist().Record(static_cast<uint64_t>(parse_timer.ElapsedNanos()));
    if (!error.empty()) {
      out->append("ERR OBSERVE ").append(error).append("\n");
      return RequestOutcome::kReply;
    }
    const StreamPoint point{id, group, coords};
    auto outcome = sessions.Ingest(name, {&point, 1}, /*as_batch=*/false);
    if (!outcome.ok()) {
      out->append("ERR ").append(outcome.status().ToString()).append("\n");
    } else if (outcome->duplicates > 0) {
      out->append("OK dup=1\n");
    } else {
      out->append("OK\n");
    }
  } else if (command == "OBSERVEB") {
    int64_t n = -1;
    if (!in.Int64(&n) || n < 0) {
      out->append("ERR OBSERVEB requires <name> <n>\n");
      return RequestOutcome::kReply;
    }
    if (!in.AtEnd()) {
      // The count DID parse, so the client sent n point lines — drain
      // them before ERRing or they'd be misread as commands.
      std::string_view drained;
      for (int64_t i = 0; i < n && payload.NextLine(&drained); ++i) {
      }
      out->append("ERR OBSERVEB takes nothing after <n>\n");
      return RequestOutcome::kReply;
    }
    const Timer parse_timer;
    ParsedBatch batch;
    const std::string error = ParseBatch(n, payload, &batch);
    ParseHist().Record(static_cast<uint64_t>(parse_timer.ElapsedNanos()));
    if (!error.empty()) {
      out->append("ERR OBSERVEB ").append(error).append("\n");
      return RequestOutcome::kReply;
    }
    auto outcome = sessions.Ingest(name, batch.points, /*as_batch=*/true);
    if (!outcome.ok()) {
      out->append("ERR ").append(outcome.status().ToString()).append("\n");
    } else {
      out->append("OK kept=")
          .append(std::to_string(outcome->accepted))
          .append(" dup=")
          .append(std::to_string(outcome->duplicates))
          .append("\n");
    }
  } else if (command == "SOLVE") {
    if (!in.AtEnd()) {
      out->append("ERR SOLVE takes only a session name\n");
      return RequestOutcome::kReply;
    }
    auto solution = sessions.Solve(name);
    if (!solution.ok()) {
      out->append("ERR ").append(solution.status().ToString()).append("\n");
      return RequestOutcome::kReply;
    }
    out->append("OK ");
    AppendIds(*solution, out);
    out->push_back('\n');
  } else if (command == "RMANIFEST" || command == "RFETCHSNAP" ||
             command == "RFETCHWAL") {
    HandleReplicationVerb(command, name, in, out);
  } else if (command == "REPLICA" || command == "LAG") {
    out->append("ERR ").append(command).append(
        " is a follower verb (start with --follow=DIR)\n");
  } else if (command == "SNAPSHOT") {
    if (!in.AtEnd()) {
      out->append("ERR SNAPSHOT takes only a session name\n");
      return RequestOutcome::kReply;
    }
    ReplyStatus(sessions.Snapshot(name), out);
  } else if (command == "RESTORE") {
    if (!in.AtEnd()) {
      out->append("ERR RESTORE takes only a session name\n");
      return RequestOutcome::kReply;
    }
    // Crash drill: forget the in-memory sink, then recover it from the
    // newest snapshot + WAL tail (the next touch triggers the reload).
    Status dropped = sessions.DropResident(name);
    if (!dropped.ok()) {
      ReplyStatus(dropped, out);
      return RequestOutcome::kReply;
    }
    auto stats = sessions.Stats(name);
    if (!stats.ok()) {
      out->append("ERR ").append(stats.status().ToString()).append("\n");
    } else {
      out->append("OK observed=")
          .append(std::to_string(stats->observed))
          .append("\n");
    }
  } else if (command == "STATS") {
    if (!in.AtEnd()) {
      out->append("ERR STATS takes only a session name\n");
      return RequestOutcome::kReply;
    }
    auto stats = sessions.Stats(name);
    if (!stats.ok()) {
      out->append("ERR ").append(stats.status().ToString()).append("\n");
      return RequestOutcome::kReply;
    }
    AppendField("OK observed=", stats->observed, out);
    AppendField(" kept=", stats->kept, out);
    AppendField(" stored=", stats->stored, out);
    AppendField(" snapshot_seq=", stats->snapshot_seq, out);
    AppendField(" version=", stats->state_version, out);
    AppendField(" solve_hits=", stats->solve_hits, out);
    AppendField(" solve_misses=", stats->solve_misses, out);
    AppendField(" solve_p50_cached_ms=", stats->solve_p50_cached_ms, out);
    AppendField(" solve_p99_cached_ms=", stats->solve_p99_cached_ms, out);
    AppendField(" solve_p50_cold_ms=", stats->solve_p50_cold_ms, out);
    AppendField(" solve_p99_cold_ms=", stats->solve_p99_cold_ms, out);
    AppendField(" snapshots=", stats->snapshots_taken, out);
    AppendField(" restores=", stats->restores, out);
    AppendField(" replayed=", stats->replayed_records, out);
    AppendField(" dedup=", stats->dedup ? "on" : "off", out);
    AppendField(" duplicates_rejected=", stats->duplicates_rejected, out);
    AppendField(" filter_bytes=", stats->filter_bytes, out);
    AppendField(" filter_grows=", stats->filter_grows, out);
    AppendField(" kernel=", stats->kernel, out);
    AppendField(" spec=\"", stats->spec, out);
    out->append("\"\n");
  } else {
    out->append("ERR unknown command '").append(command).append("'\n");
  }
  return RequestOutcome::kReply;
}

RequestOutcome RequestDispatcher::HandleFollower(std::string_view command,
                                                 TextCursor& in,
                                                 LineSource& payload,
                                                 std::string* out) {
  ReplicaManager& replicas = *replicas_;
  if (command == "QUIT") {
    if (!in.AtEnd()) {
      out->append("ERR QUIT takes no arguments\n");
      return RequestOutcome::kReply;
    }
    out->append("OK\n");
    return RequestOutcome::kQuit;
  }
  if (HandleMetricsVerb(command, in, out)) return RequestOutcome::kReply;
  if (command == "LIST") {
    if (!in.AtEnd()) {
      out->append("ERR LIST takes no arguments\n");
      return RequestOutcome::kReply;
    }
    out->append("OK");
    for (const std::string& name : replicas.SessionNames()) {
      out->push_back(' ');
      out->append(name);
    }
    out->push_back('\n');
    return RequestOutcome::kReply;
  }
  if (command == "CREATE" || command == "OBSERVE" || command == "OBSERVEB" ||
      command == "SNAPSHOT" || command == "RESTORE") {
    if (command == "OBSERVEB") {
      // Keep the framing invariant even when rejecting: the client
      // announced n point lines and will send them — swallow them so
      // they are not misread as commands.
      int64_t n = 0;
      if (!in.Word().empty() && in.Int64(&n) && n > 0) {
        std::string_view discard;
        for (int64_t i = 0; i < n && payload.NextLine(&discard); ++i) {
        }
      }
    }
    out->append("ERR read-only follower (this process serves --follow=")
        .append(root_dir_)
        .append(")\n");
    return RequestOutcome::kReply;
  }

  const std::string name(in.Word());
  if (name.empty()) {
    out->append("ERR ").append(command).append(" requires a session name\n");
    return RequestOutcome::kReply;
  }
  if (command == "SOLVE") {
    if (!in.AtEnd()) {
      out->append("ERR SOLVE takes only a session name\n");
      return RequestOutcome::kReply;
    }
    auto solve = replicas.Solve(name);
    if (!solve.ok()) {
      out->append("ERR ").append(solve.status().ToString()).append("\n");
      return RequestOutcome::kReply;
    }
    out->append("OK ");
    AppendIds(solve->solution, out);
    AppendField(" version=", solve->state_version, out);
    AppendField(" applied=", solve->applied_seq, out);
    AppendField(" lag=", solve->lag, out);
    AppendField(" stale=", solve->stale ? 1 : 0, out);
    out->push_back('\n');
  } else if (command == "STATS" || command == "LAG" || command == "REPLICA") {
    if (!in.AtEnd()) {
      out->append("ERR ").append(command).append(
          " takes only a session name\n");
      return RequestOutcome::kReply;
    }
    int64_t just_applied = -1;
    if (command == "REPLICA") {
      auto applied = replicas.Poll(name);
      if (!applied.ok()) {
        out->append("ERR ").append(applied.status().ToString()).append("\n");
        return RequestOutcome::kReply;
      }
      just_applied = *applied;
    }
    auto stats =
        command == "LAG" ? replicas.Lag(name) : replicas.Stats(name);
    if (!stats.ok()) {
      out->append("ERR ").append(stats.status().ToString()).append("\n");
      return RequestOutcome::kReply;
    }
    out->append("OK");
    if (just_applied >= 0) {
      AppendField(" applied_records=", just_applied, out);
    }
    AppendField(" applied=", stats->applied_seq, out);
    AppendField(" primary=", stats->primary_seq, out);
    AppendField(" lag=", stats->lag, out);
    AppendField(" stale=", stats->stale ? 1 : 0, out);
    AppendField(" version=", stats->state_version, out);
    AppendField(" resyncs=", stats->resyncs, out);
    AppendField(" segments_fetched=", stats->segments_fetched, out);
    AppendField(" snapshots_loaded=", stats->snapshots_loaded, out);
    AppendField(" dedup=", stats->dedup ? "on" : "off", out);
    AppendField(" duplicates_rejected=", stats->duplicates_rejected, out);
    AppendField(" filter_bytes=", stats->filter_bytes, out);
    AppendField(" solve_hits=", stats->solve.hits, out);
    AppendField(" solve_misses=", stats->solve.misses, out);
    out->push_back('\n');
  } else {
    out->append("ERR unknown command '").append(command).append("'\n");
  }
  return RequestOutcome::kReply;
}

int ServeLines(RequestDispatcher& dispatcher, std::istream& in,
               std::ostream& out) {
  StreamLineSource payload(in);
  std::string line;
  std::string reply;
  while (std::getline(in, line)) {
    reply.clear();
    const RequestOutcome outcome =
        dispatcher.HandleRequest(line, payload, &reply);
    out << reply;
    out.flush();
    if (outcome == RequestOutcome::kQuit) break;
  }
  return 0;
}

}  // namespace fdm::net
