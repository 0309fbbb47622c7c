#ifndef FDM_CORE_SNAPSHOT_UTIL_H_
#define FDM_CORE_SNAPSHOT_UTIL_H_

#include <string>
#include <string_view>

#include "core/guess_ladder.h"
#include "core/streaming_dm.h"
#include "geo/metric.h"
#include "geo/point_buffer_io.h"
#include "util/binary_io.h"

namespace fdm::internal {

/// Consumes the type tag at the cursor; fails the reader (sticky) if it is
/// not `expected`. Returns `reader.ok()` so deserializers can early-out.
inline bool ConsumeTag(SnapshotReader& reader, std::string_view expected) {
  const std::string tag = reader.ReadString();
  if (reader.ok() && tag != expected) {
    reader.Fail("type tag '" + tag + "' where '" + std::string(expected) +
                "' was expected");
  }
  return reader.ok();
}

/// Reads a `MetricKind` byte, failing the reader on out-of-range values.
inline MetricKind ReadMetricKind(SnapshotReader& reader) {
  const uint8_t byte = reader.ReadU8();
  if (reader.ok() && byte > static_cast<uint8_t>(MetricKind::kAngular)) {
    reader.Fail("metric kind byte " + std::to_string(byte) + " out of range");
  }
  return static_cast<MetricKind>(byte);
}

/// Snapshots once stored per-sink ingest and solve thread counts. The
/// threads are a process setting now (`FanOut`, util/thread_pool.h), but
/// the format keeps those `i32` slots so session directories written
/// before the change still open: writers fill each slot with this
/// constant and readers read the slot and discard it.
inline constexpr int32_t kRetiredThreadSlot = 1;

/// The `(dim, metric, d_min, d_max, ε)` block (plus the two retired
/// thread slots) shared by the fixed-ladder algorithms' snapshots — one
/// writer/reader pair so the field order can never drift between
/// StreamingDm, Sfdm1, and Sfdm2.
inline void WriteStreamingHeader(SnapshotWriter& writer, size_t dim,
                                 const Metric& metric,
                                 const GuessLadder& ladder) {
  writer.WriteU64(dim);
  writer.WriteU8(static_cast<uint8_t>(metric.kind()));
  writer.WriteDouble(ladder.d_min());
  writer.WriteDouble(ladder.d_max());
  writer.WriteDouble(ladder.epsilon());
  writer.WriteI32(kRetiredThreadSlot);  // was batch_threads
  writer.WriteI32(kRetiredThreadSlot);  // was solve_threads
}

struct StreamingHeader {
  size_t dim = 0;
  MetricKind metric = MetricKind::kEuclidean;
  StreamingOptions options;  // d_min, d_max, ε
};

inline StreamingHeader ReadStreamingHeader(SnapshotReader& reader) {
  StreamingHeader header;
  header.dim = reader.ReadU64();
  header.metric = ReadMetricKind(reader);
  header.options.d_min = reader.ReadDouble();
  header.options.d_max = reader.ReadDouble();
  header.options.epsilon = reader.ReadDouble();
  (void)reader.ReadI32();  // retired batch_threads slot
  (void)reader.ReadI32();  // retired solve_threads slot
  return header;
}

/// Restores one candidate's points, enforcing its capacity bound and the
/// group ids it may hold (`[0, m)` for a fair ladder's blind candidate,
/// exactly `g` for its group-`g` candidate; any for the unfair kinds).
template <typename Candidate>
void RestoreCandidatePoints(SnapshotReader& reader, Candidate& candidate,
                            GroupRange groups = {}) {
  DeserializePointBuffer(reader, candidate.MutablePointsForRestore(), groups);
  if (reader.ok() && candidate.points().size() > candidate.capacity()) {
    reader.Fail("candidate holds " + std::to_string(candidate.points().size()) +
                " points, capacity " + std::to_string(candidate.capacity()));
  }
}

}  // namespace fdm::internal

#endif  // FDM_CORE_SNAPSHOT_UTIL_H_
