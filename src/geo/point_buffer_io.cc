#include "geo/point_buffer_io.h"

#include <cmath>
#include <string>
#include <vector>

namespace fdm {

void SerializePointBuffer(SnapshotWriter& writer, const PointBuffer& buffer) {
  writer.WriteU64(buffer.dim());
  writer.WriteI64Span(buffer.ids());
  writer.WriteI32Span(buffer.groups());
  // De-blocked: the same count-prefixed, point-major doubles a
  // `WriteDoubleSpan` over contiguous coordinates would write.
  writer.WriteU64(buffer.size() * buffer.dim());
  for (size_t i = 0; i < buffer.size(); ++i) {
    for (const double c : buffer.CoordsAt(i)) writer.WriteDouble(c);
  }
}

void DeserializePointBuffer(SnapshotReader& reader, PointBuffer& buffer,
                            GroupRange groups) {
  const uint64_t dim = reader.ReadU64();
  if (!reader.ok()) return;
  if (dim != buffer.dim()) {
    reader.Fail("point buffer dim " + std::to_string(dim) +
                " does not match expected " + std::to_string(buffer.dim()));
    return;
  }
  const std::vector<int64_t> ids = reader.ReadI64Vec();
  const std::vector<int32_t> point_groups = reader.ReadI32Vec();
  const uint64_t coord_count = reader.ReadU64();
  if (!reader.ok()) return;
  const uint64_t max_coords = reader.Remaining() / sizeof(double);
  if (point_groups.size() != ids.size() || ids.size() > max_coords / dim ||
      coord_count != ids.size() * dim) {
    reader.Fail("point buffer arrays disagree: " + std::to_string(ids.size()) +
                " ids, " + std::to_string(point_groups.size()) + " groups, " +
                std::to_string(coord_count) + " coords for dim " +
                std::to_string(dim));
    return;
  }
  // Sized from the stored count, which the payload length bounds above.
  buffer.Reserve(buffer.size() + ids.size());
  std::vector<double> coords(dim);
  for (size_t i = 0; i < ids.size(); ++i) {
    const int32_t group = point_groups[i];
    if (group < groups.min || group > groups.max) {
      reader.Fail("stored point group " + std::to_string(group) +
                  " outside [" + std::to_string(groups.min) + ", " +
                  std::to_string(groups.max) + "]");
      return;
    }
    for (double& c : coords) {
      c = reader.ReadDouble();
      if (!std::isfinite(c)) {
        reader.Fail("stored point " + std::to_string(ids[i]) +
                    " has a non-finite coordinate");
        return;
      }
    }
    buffer.AddDeferPadding(StreamPoint{ids[i], group, coords});
  }
  buffer.SealPadding();
}

}  // namespace fdm
