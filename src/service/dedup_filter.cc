#include "service/dedup_filter.h"

#include <utility>

#include "util/binary_io.h"

namespace fdm {

namespace {

constexpr int64_t kEmptyId = -1;

/// SplitMix64 finalizer — one multiply-xor round is plenty for point ids
/// (often sequential), and it is the same mixer the util Rng seeds with.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

DedupFilter::DedupFilter() {
  slots_.assign(kInitialBuckets * kSlotsPerBucket, 0);
  bucket_mask_ = kInitialBuckets - 1;
  ids_.assign(kInitialBuckets * kSlotsPerBucket * 2, kEmptyId);
  id_mask_ = ids_.size() - 1;
}

DedupFilter::Probe DedupFilter::MakeProbe(int64_t id) const {
  const uint64_t h = Mix64(static_cast<uint64_t>(id));
  Probe probe;
  // Fingerprint from the high bits, bucket from the low bits — independent
  // views of the hash, so a bucket collision does not imply a fingerprint
  // collision. 0 is reserved for "empty slot".
  probe.fp = static_cast<uint16_t>(h >> 48);
  if (probe.fp == 0) probe.fp = 1;
  probe.bucket1 = static_cast<size_t>(h) & bucket_mask_;
  probe.bucket2 = AltBucket(probe.bucket1, probe.fp);
  return probe;
}

size_t DedupFilter::AltBucket(size_t bucket, uint16_t fp) const {
  // Partial-key cuckoo: the partner bucket is derivable from (bucket, fp)
  // alone, so kicks can move fingerprints without knowing the original id.
  return (bucket ^ static_cast<size_t>(Mix64(fp))) & bucket_mask_;
}

bool DedupFilter::FilterMaybeContains(const Probe& probe) const {
  const uint16_t* b1 = &slots_[probe.bucket1 * kSlotsPerBucket];
  const uint16_t* b2 = &slots_[probe.bucket2 * kSlotsPerBucket];
  for (size_t i = 0; i < kSlotsPerBucket; ++i) {
    if (b1[i] == probe.fp || b2[i] == probe.fp) return true;
  }
  return false;
}

bool DedupFilter::FilterInsert(uint16_t fp, size_t bucket1) {
  size_t bucket = bucket1;
  uint16_t carry = fp;
  for (int kick = 0; kick <= kMaxKicks; ++kick) {
    uint16_t* slots = &slots_[bucket * kSlotsPerBucket];
    for (size_t i = 0; i < kSlotsPerBucket; ++i) {
      if (slots[i] == 0) {
        slots[i] = carry;
        return true;
      }
    }
    const size_t alt = AltBucket(bucket, carry);
    uint16_t* alt_slots = &slots_[alt * kSlotsPerBucket];
    for (size_t i = 0; i < kSlotsPerBucket; ++i) {
      if (alt_slots[i] == 0) {
        alt_slots[i] = carry;
        return true;
      }
    }
    // Both buckets full: evict a deterministic pseudo-random victim from
    // the alt bucket and continue from its partner.
    kick_state_ = Mix64(kick_state_);
    const size_t victim = static_cast<size_t>(kick_state_) % kSlotsPerBucket;
    std::swap(carry, alt_slots[victim]);
    bucket = AltBucket(alt, carry);
  }
  return false;
}

void DedupFilter::GrowFilter() {
  // Rebuild from the exact set at double capacity. Load-triggered and
  // kick-failure-triggered growth both land here; retrying the rebuild at
  // ever-larger capacities always terminates (at 2x slots per id, a full
  // kick-walk failure becomes vanishingly unlikely and the loop doubles
  // again if it does happen).
  size_t buckets = (bucket_mask_ + 1) * 2;
  for (;;) {
    slots_.assign(buckets * kSlotsPerBucket, 0);
    bucket_mask_ = buckets - 1;
    grows_ += 1;
    bool ok = true;
    for (int64_t id : ids_) {
      if (id == kEmptyId) continue;
      const Probe probe = MakeProbe(id);
      if (!FilterInsert(probe.fp, probe.bucket1)) {
        ok = false;
        break;
      }
    }
    if (ok) return;
    buckets *= 2;
  }
}

bool DedupFilter::ExactContains(int64_t id) const {
  size_t slot = static_cast<size_t>(Mix64(static_cast<uint64_t>(id))) &
                id_mask_;
  while (ids_[slot] != kEmptyId) {
    if (ids_[slot] == id) return true;
    slot = (slot + 1) & id_mask_;
  }
  return false;
}

void DedupFilter::ExactInsert(int64_t id) {
  size_t slot = static_cast<size_t>(Mix64(static_cast<uint64_t>(id))) &
                id_mask_;
  while (ids_[slot] != kEmptyId) slot = (slot + 1) & id_mask_;
  ids_[slot] = id;
}

void DedupFilter::ExactGrowIfNeeded() {
  // Keep load under 50% so linear probing stays short.
  if ((size_ + 1) * 2 <= ids_.size()) return;
  std::vector<int64_t> old = std::move(ids_);
  ids_.assign(old.size() * 2, kEmptyId);
  id_mask_ = ids_.size() - 1;
  for (int64_t id : old) {
    if (id != kEmptyId) ExactInsert(id);
  }
}

bool DedupFilter::Contains(int64_t id) const {
  if (id < 0) return false;
  const Probe probe = MakeProbe(id);
  if (!FilterMaybeContains(probe)) return false;
  return ExactContains(id);
}

bool DedupFilter::InsertIfAbsent(int64_t id) {
  if (id < 0) return true;  // identity-less points bypass dedup
  const Probe probe = MakeProbe(id);
  if (FilterMaybeContains(probe)) {
    if (ExactContains(id)) return false;  // true duplicate
    false_positives_ += 1;  // fingerprint collision — admit the point
  }
  ExactGrowIfNeeded();
  ExactInsert(id);
  size_ += 1;
  // Grow before the table saturates: past ~94% occupancy (15/16 slots)
  // kick walks get long and failure-prone.
  const size_t capacity = slots_.size();
  if (size_ * 16 >= capacity * 15 ||
      !FilterInsert(probe.fp, probe.bucket1)) {
    GrowFilter();
  }
  return true;
}

size_t DedupFilter::MemoryBytes() const {
  return slots_.size() * sizeof(uint16_t) + ids_.size() * sizeof(int64_t);
}

void DedupFilter::Clear() {
  std::fill(slots_.begin(), slots_.end(), 0);
  std::fill(ids_.begin(), ids_.end(), kEmptyId);
  size_ = 0;
}

void DedupFilter::Serialize(SnapshotWriter& writer) const {
  // Only the ids and the cumulative counters persist; the fingerprint
  // table is rebuilt on load, which keeps the format independent of the
  // slot layout (and of kMaxKicks / growth-trigger tuning).
  writer.WriteU64(bucket_mask_ + 1);
  writer.WriteU64(grows_);
  writer.WriteU64(false_positives_);
  // The bytes of `WriteI64Span` over the present ids, written straight
  // from the table: no id list as large as the set is ever built.
  writer.WriteU64(size_);
  for (int64_t id : ids_) {
    if (id != kEmptyId) writer.WriteI64(id);
  }
}

Result<DedupFilter> DedupFilter::Deserialize(SnapshotReader& reader) {
  const uint64_t buckets = reader.ReadU64();
  const uint64_t grows = reader.ReadU64();
  const uint64_t false_positives = reader.ReadU64();
  std::vector<int64_t> present = reader.ReadI64Vec();
  if (!reader.ok()) return reader.status();
  if (buckets < kInitialBuckets || (buckets & (buckets - 1)) != 0) {
    return Status::IoError("dedup filter snapshot: bad bucket count " +
                           std::to_string(buckets));
  }
  DedupFilter filter;
  // Restore at the serialized capacity up front so the rebuild does not
  // replay the whole growth ladder.
  filter.slots_.assign(buckets * kSlotsPerBucket, 0);
  filter.bucket_mask_ = buckets - 1;
  while (filter.ids_.size() < present.size() * 2) {
    filter.ids_.assign(filter.ids_.size() * 2, kEmptyId);
  }
  std::fill(filter.ids_.begin(), filter.ids_.end(), kEmptyId);
  filter.id_mask_ = filter.ids_.size() - 1;
  for (int64_t id : present) {
    if (id < 0 || filter.ExactContains(id)) {
      return Status::IoError("dedup filter snapshot: invalid id list");
    }
    filter.ExactInsert(id);
    filter.size_ += 1;
    const Probe probe = filter.MakeProbe(id);
    if (!filter.FilterInsert(probe.fp, probe.bucket1)) filter.GrowFilter();
  }
  filter.grows_ = grows;
  filter.false_positives_ = false_positives;
  return filter;
}

}  // namespace fdm
