#ifndef FDM_SERVICE_SINK_SPEC_H_
#define FDM_SERVICE_SINK_SPEC_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/stream_sink.h"
#include "geo/metric.h"
#include "util/status.h"

namespace fdm {

/// The shape every point of a session must have: `dim` coordinates and,
/// when `groups > 0` (the fair kinds), a group in [0, groups).
struct PointShape {
  size_t dim = 0;
  size_t groups = 0;  // 0 = any group
};

/// Ok iff every point has `shape`'s dimension, finite coordinates and a
/// group in range; otherwise `InvalidArgument` naming the first fault.
/// The one point check of the service layer: ingest runs it before a point
/// reaches the WAL, and replay (crash recovery and follower tails) before
/// a logged record reaches a sink, whose `FDM_CHECK`s are internal
/// invariants, not input validation.
Status ValidatePoints(std::span<const StreamPoint> points,
                      const PointShape& shape);

/// A textual, dataset-free description of a streaming sink — the unit of
/// configuration the service layer stores per session. Unlike the harness
/// registry (which reads k/dim/metric off a `Dataset`), a serving session
/// has no dataset: the spec carries everything needed to build the sink
/// before the first element arrives.
///
/// Format: whitespace-separated `key=value` tokens, e.g.
///
///   algo=sfdm2 dim=4 quotas=2,2,3 metric=euclidean eps=0.1 dmin=0.01
///   dmax=50
///
/// Keys:
///   algo     streaming_dm | sfdm1 | sfdm2 | adaptive | sharded |
///            sliding_window   (required)
///   dim      point dimension (required)
///   k        solution size (unconstrained kinds; required for them)
///   quotas   comma-separated per-group quotas (fair kinds; required)
///   metric   euclidean | manhattan | angular      (default euclidean)
///   eps      guess-ladder ε                        (default 0.1)
///   dmin     lower distance bound (required unless algo=adaptive)
///   dmax     upper distance bound (required unless algo=adaptive)
///   shards   shard count (algo=sharded)            (default 4)
///   window   window length (algo=sliding_window; required for it)
///   checkpoints  window replicas (algo=sliding_window, default 4)
///   max_rungs    ladder cap (algo=adaptive, default 4096)
///   dedup    on | off — exactly-once ingest: an id-keyed fingerprint
///            filter in front of admission makes re-OBSERVEd points
///            idempotent no-ops (no WAL record, no state-version bump).
///            Session-layer concern; the sink itself ignores it.
///            (default off — sliding-window streams legitimately
///            re-observe ids)
///
/// Thread counts are not part of a spec: every sink fans out at the one
/// process width (`SetFanOutWidth`, util/thread_pool.h). The retired keys
/// `threads=` and `solve_threads=` of older SPEC files are still parsed
/// and range-checked (`solve_threads` must be >= 0), then ignored, and
/// `ToString` no longer emits them.
struct SinkSpec {
  std::string algo;
  size_t dim = 0;
  int k = 0;
  std::vector<int> quotas;
  MetricKind metric = MetricKind::kEuclidean;
  double epsilon = 0.1;
  double d_min = 0.0;
  double d_max = 0.0;
  size_t shards = 4;
  int64_t window = 0;
  int64_t checkpoints = 4;
  size_t max_rungs = 4096;
  bool dedup = false;

  /// Parses the `key=value` form; unknown keys and malformed values are
  /// `InvalidArgument` errors (a serving config typo should fail loudly).
  static Result<SinkSpec> Parse(std::string_view text);

  /// Canonical round-trippable text form.
  std::string ToString() const;

  /// How many groups a point's `group` must fall in: the quota count for
  /// the fair kinds (sfdm1, sfdm2), 0 for the kinds that ignore groups.
  size_t GroupCount() const {
    return algo == "sfdm1" || algo == "sfdm2" ? quotas.size() : 0;
  }

  /// The shape of the points a sink built from this spec accepts.
  PointShape Shape() const { return {dim, GroupCount()}; }

  /// Builds a fresh sink. Fails if required keys for the chosen algorithm
  /// are missing or inconsistent.
  Result<std::unique_ptr<StreamSink>> MakeSink() const;
};

/// `SinkSpec::Parse` + `MakeSink` in one step.
Result<std::unique_ptr<StreamSink>> MakeSinkFromSpec(std::string_view text);

}  // namespace fdm

#endif  // FDM_SERVICE_SINK_SPEC_H_
