#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// The traced run: replays a workload's generated request stream at each
// layer boundary in turn — TCP (`NetClient`), in-process
// `RequestDispatcher::HandleRequest`, `SessionManager::Ingest`/`Solve`,
// and the bare parts below a session (sink + `SolveCache`, WAL, dedup
// filter, snapshot/open) — recording one span per call. A layer's self
// time is its span minus the next-inner layer's span for the same request.

#include <string>

#include "workload.h"

namespace perfbench {

struct TraceNumbers {
  bool ok = true;               // every layer gave the reference's replies
  std::string error;
  double rtt_self_us = 0.0;     // median(TCP - HandleRequest)
  double parse_self_us_per_pt = 0.0;
  double dispatch_solve_self_us = 0.0;  // median(HandleRequest - Solve)
  double session_ingest_self_us_per_pt = 0.0;
  double session_solve_cached_us = 0.0;
  double wal_append_us_per_pt = 0.0;
  double dedup_probe_ns = 0.0;
  double sink_observe_us_per_pt = 0.0;
  double solve_cold_p50_ms = 0.0;
  double solve_cold_p99_ms = 0.0;
  double snapshot_ms = 0.0;     // SessionManager::Snapshot, median
  double open_ms = 0.0;         // DurableSession::Open, median
  double tcp_pts_per_s = 0.0;   // one connection, one request at a time
  double tcp_observe_p50_ms = 0.0;
  double tcp_solve_p50_ms = 0.0;
  size_t spans = 0;
};

/// Runs the four replays. `workdir` receives temporary session roots (and is
/// emptied afterwards); the spans are written to `spans_path`.
TraceNumbers TracedReplay(const Workload& w, const std::string& server_bin,
                          const std::string& workdir,
                          const std::string& spans_path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
