#include "src/core/history.h"

#include <cmath>

#include "src/util/require.h"

namespace anyqos::core {

AdmissionHistory::AdmissionHistory(std::size_t k) : failures_(k, 0) {
  util::require(k >= 1, "history needs at least one member");
}

void AdmissionHistory::record(std::size_t index, bool success) {
  util::require(index < failures_.size(), "history index out of range");
  if (success) {
    failures_[index] = 0;
  } else {
    ++failures_[index];
  }
}

std::size_t AdmissionHistory::consecutive_failures(std::size_t index) const {
  util::require(index < failures_.size(), "history index out of range");
  return failures_[index];
}

void AdmissionHistory::reset() { failures_.assign(failures_.size(), 0); }

WeightVector apply_history(const WeightVector& weights, const AdmissionHistory& history,
                           double alpha) {
  WeightVector updated = weights;
  std::vector<double> scratch;
  apply_history_in_place(updated, history, alpha, scratch);
  return updated;
}

void apply_history_in_place(WeightVector& weights, const AdmissionHistory& history, double alpha,
                            std::vector<double>& scratch) {
  util::require(alpha >= 0.0 && alpha <= 1.0, "alpha must be in [0,1]");
  util::require(weights.size() == history.size(), "weights and history sizes must match");
  const std::size_t k = weights.size();
  const std::vector<double>& w = weights.values();
  const std::vector<std::size_t>& failures = history.values();

  // alpha^h with the 0^0 == 1 convention (h == 0 must leave weight intact).
  const auto discount = [alpha](std::size_t h) {
    return h == 0 ? 1.0 : std::pow(alpha, static_cast<double>(h));
  };

  // Step 1 (eq. 8): adjustable weight mass.
  double adjustable = 0.0;
  std::size_t zero_history_members = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t h = failures[i];
    adjustable += w[i] * (1.0 - discount(h));
    if (h == 0) {
      ++zero_history_members;
    }
  }

  // Step 2 (eq. 9): shift mass from failing members to clean ones.
  std::vector<double>& updated = scratch;
  updated.assign(k, 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t h = failures[i];
    if (h != 0) {
      updated[i] = w[i] * discount(h);
    } else {
      updated[i] = w[i] + (zero_history_members > 0
                               ? adjustable / static_cast<double>(zero_history_members)
                               : 0.0);
    }
    total += updated[i];
  }

  if (total <= 0.0) {
    // alpha == 0 with every member failing: no signal, keep prior weights.
    return;
  }
  // Step 3 (eq. 10): renormalize.
  weights.assign_normalized(updated);
}

}  // namespace anyqos::core
