#include "src/core/weights.h"

#include <algorithm>
#include <cmath>

#include "src/util/require.h"

namespace anyqos::core {

void normalize_weights(std::span<double> raw) {
  double total = 0.0;
  for (const double w : raw) {
    util::require(w >= 0.0 && std::isfinite(w), "weights must be finite and non-negative");
    total += w;
  }
  util::require(total > 0.0, "weight normalization requires a positive total");
  for (double& w : raw) {
    w /= total;
  }
}

WeightVector WeightVector::uniform(std::size_t k) {
  util::require(k >= 1, "weight vector needs at least one member");
  return WeightVector(std::vector<double>(k, 1.0 / static_cast<double>(k)));
}

WeightVector WeightVector::inverse_distance(std::span<const std::size_t> distances) {
  WeightVector weights;
  weights.assign_inverse_distance(distances);
  return weights;
}

WeightVector WeightVector::bandwidth_distance(std::span<const double> bandwidths,
                                              std::span<const std::size_t> distances) {
  WeightVector weights;
  weights.assign_bandwidth_distance(bandwidths, distances);
  return weights;
}

WeightVector WeightVector::normalized(std::vector<double> raw) {
  util::require(!raw.empty(), "weight vector needs at least one member");
  normalize_weights(raw);
  return WeightVector(std::move(raw));
}

void WeightVector::assign_inverse_distance(std::span<const std::size_t> distances) {
  util::require(!distances.empty(), "weight vector needs at least one member");
  weights_.clear();
  for (const std::size_t d : distances) {
    weights_.push_back(1.0 / static_cast<double>(std::max<std::size_t>(d, 1)));
  }
  normalize_weights(weights_);
}

void WeightVector::assign_bandwidth_distance(std::span<const double> bandwidths,
                                             std::span<const std::size_t> distances) {
  util::require(bandwidths.size() == distances.size(),
                "bandwidths and distances must have equal length");
  util::require(!bandwidths.empty(), "weight vector needs at least one member");
  weights_.clear();
  double total = 0.0;
  for (std::size_t i = 0; i < bandwidths.size(); ++i) {
    util::require(bandwidths[i] >= 0.0 && std::isfinite(bandwidths[i]),
                  "route bandwidths must be finite and non-negative");
    const double w = bandwidths[i] / static_cast<double>(std::max<std::size_t>(distances[i], 1));
    weights_.push_back(w);
    total += w;
  }
  if (total <= 0.0) {
    assign_inverse_distance(distances);
    return;
  }
  normalize_weights(weights_);
}

void WeightVector::assign_normalized(std::span<const double> raw) {
  util::require(!raw.empty(), "weight vector needs at least one member");
  weights_.assign(raw.begin(), raw.end());
  normalize_weights(weights_);
}

double WeightVector::at(std::size_t i) const {
  util::require(i < weights_.size(), "weight index out of range");
  return weights_[i];
}

WeightVector WeightVector::masked(std::span<const bool> excluded) const {
  std::vector<double> raw;
  masked_into(excluded, raw);
  return WeightVector(std::move(raw));  // all-zero when nothing is left: caller checks is_zero()
}

void WeightVector::masked_into(std::span<const bool> excluded, std::vector<double>& out) const {
  util::require(excluded.size() == weights_.size(), "mask length must match weight count");
  out.assign(weights_.size(), 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    if (!excluded[i]) {
      out[i] = weights_[i];
      total += weights_[i];
    }
  }
  if (total <= 0.0) {
    return;
  }
  for (double& w : out) {
    w /= total;
  }
}

bool WeightVector::is_zero() const {
  return std::all_of(weights_.begin(), weights_.end(), [](double w) { return w == 0.0; });
}

bool WeightVector::normalized_within(double tolerance) const {
  double total = 0.0;
  for (const double w : weights_) {
    if (w < 0.0) {
      return false;
    }
    total += w;
  }
  return std::abs(total - 1.0) <= tolerance;
}

}  // namespace anyqos::core
