#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// Workload model of the end-to-end benchmark: sessions, their point
// streams, the request streams the load generator sends, and the
// in-process reference that predicts every reply and every
// seed-determined server counter.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/stream_sink.h"
#include "data/dataset.h"

namespace perfbench {

/// kStats and kSnapshot are the closing checks' verbs; they are appended
/// after the reference ran and never reach it.
enum class Op : uint8_t {
  kCreate,
  kObserve,
  kObserveB,
  kSolve,
  kStats,
  kSnapshot
};

struct SessionDef {
  std::string name;
  std::string spec;  // sink spec text, as sent in CREATE
  bool dedup = false;
  std::unique_ptr<fdm::Dataset> data;  // the session's point stream, in order
  size_t next_row = 0;                 // generation cursor into `data`
  /// Points the server records in the session's WAL: every point sent,
  /// less the exact duplicates a dedup=on session skips.
  int64_t observed = 0;
};

/// Which part of a run a request belongs to. Only kPhase requests are
/// latency samples; every request is checked and counted.
enum class Stage : uint8_t { kSetup, kPhase, kClosing };

struct Request {
  Stage stage = Stage::kPhase;
  Op op = Op::kSolve;
  uint16_t session = 0;
  uint8_t conn = 0;
  /// Open loop: seconds after the phase start at which the request is due.
  double due_s = 0.0;
  /// Points [first, first + count) of the session's dataset.
  uint32_t first = 0;
  uint32_t count = 0;
  std::string text;    // frame payload
  std::string expect;  // reply the reference predicts, byte for byte
  /// Reference facts used by the traced replay.
  bool solve_hit = false;
};

/// Counters the server must report exactly (they depend on the seed only).
struct ExactCounts {
  int64_t requests = 0;          // fdm_net_requests_total (phase server)
  int64_t points_observed = 0;   // fdm_ingest_points_observed_total
  int64_t points_kept = 0;       // fdm_ingest_points_kept_total
  int64_t dedup_rejected = 0;    // fdm_dedup_rejected_total
  int64_t solve_hits = 0;        // fdm_solve_hits_total
  int64_t solve_misses = 0;      // fdm_solve_misses_total
  int64_t restores = 0;          // fdm_session_restores_total
};

struct Workload {
  std::string name;
  bool open_loop = false;
  int connections = 1;
  int depth = 1;               // closed loop: requests in flight per connection
  size_t max_resident = 0;     // fdm_serve --max_resident (0 = unlimited)
  double phase_s = 0.0;        // open loop: schedule length
  std::vector<SessionDef> sessions;
  std::vector<Request> requests;  // setup, then phase, then closing
  size_t generated = 0;           // requests made from the seed (the rest
                                  // are added while the run checks state)
  ExactCounts counts;
  int64_t phase_points = 0;       // points sent in phase requests
};

/// Builds the named workload ("ingest_bulk", "query_mixed",
/// "spill_churn") from `seed`, renders every request's text and runs the
/// reference. `seconds` scales the amount of work. Returns null on an
/// unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, double seconds);

/// The STREAM points of request `r` (for in-process layers).
std::vector<fdm::StreamPoint> PointsOf(const Workload& w, const Request& r);

/// SOLVE reply text for a solution, as the dispatcher renders it.
std::string SolveReply(const fdm::Solution& solution);

/// The SOLVE reply of an uninterrupted run of session `s` over the first
/// `n` of its recorded points (see SessionDef::observed), fed in one batch
/// (the sinks are chunking-invariant). An "ERR" text when it cannot be
/// computed.
std::string SolveAfter(const Workload& w, uint16_t s, int64_t n);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
