#ifndef FDM_CORE_FAIRNESS_H_
#define FDM_CORE_FAIRNESS_H_

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "util/status.h"

namespace fdm {

/// The group-fairness constraint of Definition 1: the solution must contain
/// exactly `quotas[i]` elements of group `i`. Quotas are positive
/// (the paper assumes `k_i ∈ Z+`).
///
/// This is exactly a rank-`k` partition matroid whose maximal independent
/// sets are the fair selections (Section III-A).
struct FairnessConstraint {
  std::vector<int> quotas;

  int num_groups() const { return static_cast<int>(quotas.size()); }

  /// `k = Σ k_i`.
  int TotalK() const {
    return std::accumulate(quotas.begin(), quotas.end(), 0);
  }

  /// OK iff every quota is positive, there is at least one group, and the
  /// quotas sum to at most INT_MAX (so `TotalK` is exact).
  Status Validate() const;

  /// OK iff the constraint is satisfiable on a dataset with the given
  /// per-group element counts (`group_sizes[i] >= quotas[i]`).
  Status ValidateAgainst(std::span<const size_t> group_sizes) const;
};

/// Equal representation (ER): `k_i = k/m`, distributing the remainder
/// `k mod m` one-per-group from group 0 upward (the paper: "k_i = ⌈k/m⌉ for
/// some groups or k_i = ⌊k/m⌋ for the others with Σ k_i = k").
/// Requires `k >= m` so that every quota is positive.
Result<FairnessConstraint> EqualRepresentation(int k, int m);

/// Proportional representation (PR): `k_i ≈ k · n_i / n` via the largest-
/// remainder method, then raising zero quotas to 1 (taking from the largest
/// quota) so each group stays represented — the paper restricts all
/// experiments to at least one element per group.
/// Requires `k >= m`.
Result<FairnessConstraint> ProportionalRepresentation(
    int k, std::span<const size_t> group_sizes);

}  // namespace fdm

#endif  // FDM_CORE_FAIRNESS_H_
