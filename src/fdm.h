#ifndef FDM_FDM_H_
#define FDM_FDM_H_

/// Umbrella header for the fdm library — streaming algorithms for
/// diversity maximization with fairness constraints (Wang, Fabbri,
/// Mathioudakis; ICDE 2022).
///
/// Typical applications only need:
///   * a fairness constraint   — core/fairness.h
///   * a streaming algorithm   — core/sfdm1.h (m = 2), core/sfdm2.h (any m),
///                               core/streaming_dm.h (unconstrained)
///   * distance bounds         — data/dataset.h (EstimateDistanceBounds)
///
/// The offline baselines (baselines/*.h), the sliding-window adapter
/// (core/sliding_window.h), the durable serving layer (service/*.h —
/// snapshots, write-ahead log, session manager), and the experiment
/// harness (harness/*.h) are included here for convenience; fine-grained
/// includes compile faster.

#include "core/clustering.h"        // IWYU pragma: export
#include "core/composable_coreset.h"  // IWYU pragma: export
#include "core/diversity.h"         // IWYU pragma: export
#include "core/fairness.h"          // IWYU pragma: export
#include "core/gmm.h"               // IWYU pragma: export
#include "core/guess_ladder.h"      // IWYU pragma: export
#include "core/matroid.h"           // IWYU pragma: export
#include "core/matroid_intersection.h"  // IWYU pragma: export
#include "core/adaptive_streaming_dm.h"  // IWYU pragma: export
#include "core/sfdm1.h"             // IWYU pragma: export
#include "core/sfdm2.h"             // IWYU pragma: export
#include "core/sharded_stream.h"    // IWYU pragma: export
#include "core/sliding_window.h"    // IWYU pragma: export
#include "core/sink_snapshot.h"     // IWYU pragma: export
#include "core/solution.h"          // IWYU pragma: export
#include "core/solve_cache.h"       // IWYU pragma: export
#include "core/stream_sink.h"       // IWYU pragma: export
#include "core/streaming_dm.h"      // IWYU pragma: export
#include "core/validate.h"          // IWYU pragma: export
#include "replica/replica_manager.h"  // IWYU pragma: export
#include "replica/replica_session.h"  // IWYU pragma: export
#include "replica/replication_source.h"  // IWYU pragma: export
#include "service/durable_session.h"  // IWYU pragma: export
#include "service/session_layout.h"  // IWYU pragma: export
#include "service/session_manager.h"  // IWYU pragma: export
#include "service/sink_spec.h"      // IWYU pragma: export
#include "service/wal.h"            // IWYU pragma: export
#include "baselines/fair_flow.h"    // IWYU pragma: export
#include "baselines/fair_gmm.h"     // IWYU pragma: export
#include "baselines/fair_swap.h"    // IWYU pragma: export
#include "baselines/max_sum_greedy.h"  // IWYU pragma: export
#include "data/csv.h"               // IWYU pragma: export
#include "data/dataset.h"           // IWYU pragma: export
#include "data/simulated.h"         // IWYU pragma: export
#include "data/synthetic.h"         // IWYU pragma: export
#include "geo/metric.h"             // IWYU pragma: export
#include "geo/point_buffer.h"       // IWYU pragma: export
#include "geo/point_buffer_io.h"    // IWYU pragma: export
#include "geo/simd/kernel_dispatch.h"  // IWYU pragma: export
#include "util/binary_io.h"         // IWYU pragma: export
#include "util/status.h"            // IWYU pragma: export
#include "util/thread_pool.h"       // IWYU pragma: export

#endif  // FDM_FDM_H_
