#include "core/fairness.h"

#include <algorithm>
#include <limits>
#include <string>

namespace fdm {

Status FairnessConstraint::Validate() const {
  if (quotas.empty()) {
    return Status::InvalidArgument("fairness constraint has no groups");
  }
  int64_t total = 0;
  for (size_t i = 0; i < quotas.size(); ++i) {
    if (quotas[i] <= 0) {
      return Status::InvalidArgument("quota for group " + std::to_string(i) +
                                     " must be positive, got " +
                                     std::to_string(quotas[i]));
    }
    total += quotas[i];
  }
  if (total > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("quota sum " + std::to_string(total) +
                                   " does not fit in an int");
  }
  return Status::Ok();
}

Status FairnessConstraint::ValidateAgainst(
    std::span<const size_t> group_sizes) const {
  if (group_sizes.size() != quotas.size()) {
    return Status::InvalidArgument(
        "constraint has " + std::to_string(quotas.size()) +
        " groups but dataset has " + std::to_string(group_sizes.size()));
  }
  for (size_t i = 0; i < quotas.size(); ++i) {
    if (group_sizes[i] < static_cast<size_t>(quotas[i])) {
      return Status::Infeasible("group " + std::to_string(i) + " has only " +
                                std::to_string(group_sizes[i]) +
                                " elements but quota is " +
                                std::to_string(quotas[i]));
    }
  }
  return Status::Ok();
}

Result<FairnessConstraint> EqualRepresentation(int k, int m) {
  if (m <= 0) return Status::InvalidArgument("m must be positive");
  if (k < m) {
    return Status::InvalidArgument(
        "k = " + std::to_string(k) + " < m = " + std::to_string(m) +
        "; every group needs at least one slot");
  }
  FairnessConstraint c;
  c.quotas.assign(static_cast<size_t>(m), k / m);
  for (int i = 0; i < k % m; ++i) ++c.quotas[static_cast<size_t>(i)];
  return c;
}

Result<FairnessConstraint> ProportionalRepresentation(
    int k, std::span<const size_t> group_sizes) {
  const int m = static_cast<int>(group_sizes.size());
  if (m <= 0) return Status::InvalidArgument("no groups");
  if (k < m) {
    return Status::InvalidArgument(
        "k = " + std::to_string(k) + " < m = " + std::to_string(m) +
        "; every group needs at least one slot");
  }
  size_t n = 0;
  for (const size_t s : group_sizes) n += s;
  if (n == 0) return Status::InvalidArgument("empty dataset");

  FairnessConstraint c;
  c.quotas.assign(static_cast<size_t>(m), 0);
  std::vector<double> remainder(static_cast<size_t>(m));
  int assigned = 0;
  for (int i = 0; i < m; ++i) {
    const double ideal = static_cast<double>(k) *
                         static_cast<double>(group_sizes[static_cast<size_t>(i)]) /
                         static_cast<double>(n);
    c.quotas[static_cast<size_t>(i)] = static_cast<int>(ideal);
    remainder[static_cast<size_t>(i)] = ideal - static_cast<double>(
                                                    c.quotas[static_cast<size_t>(i)]);
    assigned += c.quotas[static_cast<size_t>(i)];
  }
  // Largest-remainder apportionment of the leftover slots.
  std::vector<int> order(static_cast<size_t>(m));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return remainder[static_cast<size_t>(a)] > remainder[static_cast<size_t>(b)];
  });
  for (int j = 0; assigned < k; ++j) {
    ++c.quotas[static_cast<size_t>(order[static_cast<size_t>(j % m)])];
    ++assigned;
  }
  // Raise empty groups to one slot, taking from the largest quota.
  for (int i = 0; i < m; ++i) {
    while (c.quotas[static_cast<size_t>(i)] == 0) {
      auto it = std::max_element(c.quotas.begin(), c.quotas.end());
      if (*it <= 1) {
        return Status::Infeasible("cannot give every group a slot with k = " +
                                  std::to_string(k));
      }
      --(*it);
      ++c.quotas[static_cast<size_t>(i)];
    }
  }
  return c;
}

}  // namespace fdm
