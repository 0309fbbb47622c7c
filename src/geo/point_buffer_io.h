#ifndef FDM_GEO_POINT_BUFFER_IO_H_
#define FDM_GEO_POINT_BUFFER_IO_H_

#include <cstdint>
#include <limits>

#include "geo/point_buffer.h"
#include "util/binary_io.h"
#include "util/status.h"

namespace fdm {

/// Snapshot serialization of a `PointBuffer` — the storage unit behind
/// every streaming candidate, so this is the byte layout most of a sink
/// snapshot consists of. One length-prefixed bulk array per field:
///
///   dim u64 | ids i64-span | groups i32-span | coords double-span
///
/// (span = u64 count + raw little-endian elements; the three counts must
/// agree — size, size, size·dim). The coordinates are written point-major,
/// de-blocked from the buffer's 8-lane kernel layout, and round-trip
/// bit-exactly (raw IEEE-754 doubles), which is what makes a restored
/// sink's `Solve()` bit-identical to the uninterrupted run.
void SerializePointBuffer(SnapshotWriter& writer, const PointBuffer& buffer);

/// Bytes an empty serialized buffer takes (its dim and three counts): the
/// floor a restore checks a header's buffer count against.
inline constexpr size_t kMinPointBufferBytes = 4 * sizeof(uint64_t);

/// The inclusive range of group ids a restored buffer may hold.
struct GroupRange {
  int32_t min = std::numeric_limits<int32_t>::min();
  int32_t max = std::numeric_limits<int32_t>::max();
};

/// Appends the serialized points into `buffer`, which must be constructed
/// with the matching dimension (typically empty). Fails the reader on
/// malformed input, on a point whose group lies outside `groups`, and on a
/// non-finite coordinate — the invariants `Solve` indexes by — leaving
/// `buffer` partially filled; callers check `reader.ok()` before using the
/// result.
void DeserializePointBuffer(SnapshotReader& reader, PointBuffer& buffer,
                            GroupRange groups = {});

}  // namespace fdm

#endif  // FDM_GEO_POINT_BUFFER_IO_H_
