// Destination weight vectors (paper Section 4.3).
//
// A weight vector assigns each of the K group members a selection
// probability; every assignment must satisfy constraint (1): sum W_i = 1.
// This module provides the paper's constructions — uniform (2),
// inverse-distance (4), bandwidth-over-distance (12) — plus the masking /
// renormalization used when retries exclude already-tried members.
#pragma once

#include <span>
#include <vector>

namespace anyqos::core {

/// A probability vector over group members.
class WeightVector {
 public:
  /// Uniform weights W_i = 1/K (eq. 2, the ED assignment).
  static WeightVector uniform(std::size_t k);

  /// Inverse-distance weights W_i ∝ 1/D_i (eq. 4). Distances are route hop
  /// counts; a zero distance (source co-located with a member) is treated as
  /// distance 1 so the weight stays finite while remaining the largest.
  static WeightVector inverse_distance(std::span<const std::size_t> distances);

  /// Bandwidth-over-distance weights W_i ∝ B_i / D_i (eq. 12). When every
  /// B_i is zero the result falls back to inverse-distance weights so a
  /// selection can still be made (the reservation will then fail and retrial
  /// control takes over); the paper leaves this corner unspecified.
  static WeightVector bandwidth_distance(std::span<const double> bandwidths,
                                         std::span<const std::size_t> distances);

  /// Wraps raw non-negative values, normalizing them to sum 1.
  /// Requires at least one positive value.
  static WeightVector normalized(std::vector<double> raw);

  /// In-place forms of the builders above, for selectors that rebuild their
  /// weights on every selection: the same checks and the same floating-point
  /// operations in the same order (so draws stay bit-identical), but the
  /// result overwrites this vector's storage instead of allocating.
  void assign_inverse_distance(std::span<const std::size_t> distances);
  void assign_bandwidth_distance(std::span<const double> bandwidths,
                                 std::span<const std::size_t> distances);
  void assign_normalized(std::span<const double> raw);

  [[nodiscard]] std::size_t size() const { return weights_.size(); }
  [[nodiscard]] double at(std::size_t i) const;
  [[nodiscard]] const std::vector<double>& values() const { return weights_; }

  /// Weights with `excluded` members zeroed and the rest renormalized.
  /// Returns an all-zero vector when every member with positive weight is
  /// excluded (callers detect this via is_zero()).
  [[nodiscard]] WeightVector masked(std::span<const bool> excluded) const;
  /// masked() written into `out` (resized to size()), reusing its storage.
  void masked_into(std::span<const bool> excluded, std::vector<double>& out) const;

  /// True when every entry is zero (only produced by masked()).
  [[nodiscard]] bool is_zero() const;

  /// Checks constraint (1) within `tolerance`.
  [[nodiscard]] bool normalized_within(double tolerance) const;

 private:
  WeightVector() = default;
  explicit WeightVector(std::vector<double> weights) : weights_(std::move(weights)) {}

  std::vector<double> weights_;
};

/// Scales finite non-negative `raw` in place to sum 1 — the normalization
/// every builder applies. Requires a positive total.
void normalize_weights(std::span<double> raw);

}  // namespace anyqos::core
