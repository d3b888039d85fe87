#include "src/core/selectors.h"

#include <algorithm>
#include <numeric>

#include "src/util/require.h"

namespace anyqos::core {

namespace {

/// Samples a member index from `weights` restricted to untried members.
/// Returns nullopt when all members are tried.
/// `masked` is the caller's scratch buffer.
std::optional<std::size_t> sample_masked(const WeightVector& weights, std::span<const bool> tried,
                                         des::RandomStream& rng, std::vector<double>& masked) {
  util::require(tried.size() == weights.size(), "tried mask must match group size");
  if (std::all_of(tried.begin(), tried.end(), [](bool t) { return t; })) {
    return std::nullopt;
  }
  weights.masked_into(tried, masked);
  if (std::all_of(masked.begin(), masked.end(), [](double w) { return w == 0.0; })) {
    // Every untried member has zero weight (e.g. WD/D+B with all-zero probed
    // bandwidth after masking). Fall back to uniform over untried members so
    // the retrial budget can still be spent.
    for (std::size_t i = 0; i < tried.size(); ++i) {
      masked[i] = tried[i] ? 0.0 : 1.0;
    }
    normalize_weights(masked);
  }
  return rng.weighted_index(masked);
}

std::vector<std::size_t> route_distances(net::NodeId source, const net::RouteTable& routes) {
  std::vector<std::size_t> distances;
  distances.reserve(routes.destination_count());
  for (std::size_t i = 0; i < routes.destination_count(); ++i) {
    distances.push_back(routes.distance(source, i));
  }
  return distances;
}

}  // namespace

// ---------------------------------------------------------------- ED

EvenDistributionSelector::EvenDistributionSelector(std::size_t group_size)
    : weights_(WeightVector::uniform(group_size)) {}

std::optional<std::size_t> EvenDistributionSelector::select(std::span<const bool> tried,
                                                            des::RandomStream& rng) {
  return sample_masked(weights_, tried, rng, masked_);
}

std::vector<double> EvenDistributionSelector::weights() const { return weights_.values(); }

// ---------------------------------------------------------------- WD/D+H

DistanceHistorySelector::DistanceHistorySelector(net::NodeId source,
                                                 const net::RouteTable& routes, double alpha)
    : alpha_(alpha),
      weights_(WeightVector::inverse_distance(route_distances(source, routes))),
      history_(routes.destination_count()) {
  util::require(alpha >= 0.0 && alpha <= 1.0, "alpha must be in [0,1]");
}

std::optional<std::size_t> DistanceHistorySelector::select(std::span<const bool> tried,
                                                           des::RandomStream& rng) {
  // "Every time when a destination selection is about to be made, weights
  // are updated" — the update is persistent, not a per-request scratch copy.
  apply_history_in_place(weights_, history_, alpha_, updated_);
  return sample_masked(weights_, tried, rng, masked_);
}

void DistanceHistorySelector::report(std::size_t index, bool admitted) {
  history_.record(index, admitted);
}

std::vector<double> DistanceHistorySelector::weights() const { return weights_.values(); }

// ---------------------------------------------------------------- WD/D+B

DistanceBandwidthSelector::DistanceBandwidthSelector(net::NodeId source,
                                                     const net::RouteTable& routes,
                                                     signaling::ProbeService& probe,
                                                     bool mask_infeasible,
                                                     net::Bandwidth flow_bandwidth)
    : source_(source),
      routes_(&routes),
      probe_(&probe),
      mask_infeasible_(mask_infeasible),
      flow_bandwidth_(flow_bandwidth),
      distances_(route_distances(source, routes)),
      weights_(WeightVector::uniform(distances_.size())) {
  if (mask_infeasible_) {
    util::require(flow_bandwidth_ > 0.0, "infeasibility masking needs the flow bandwidth");
  }
}

void DistanceBandwidthSelector::compute_weights(std::span<const bool> tried,
                                                std::vector<double>& bandwidths,
                                                WeightVector& out) const {
  const std::vector<net::NodeId>& members = routes_->destinations();
  bandwidths.assign(distances_.size(), 0.0);
  for (std::size_t i = 0; i < distances_.size(); ++i) {
    if (members[i] == source_ && (tried.empty() || !tried[i])) {
      bandwidths[i] = 1.0;
      out.assign_normalized(bandwidths);
      return;
    }
  }
  for (std::size_t i = 0; i < distances_.size(); ++i) {
    if (members[i] == source_) {
      continue;  // co-located and already tried: masked out, nothing to probe
    }
    double b = probe_->route_bandwidth(routes_->route(source_, i));
    if (mask_infeasible_ && b < flow_bandwidth_) {
      b = 0.0;
    }
    bandwidths[i] = b;
  }
  out.assign_bandwidth_distance(bandwidths, distances_);
}

std::optional<std::size_t> DistanceBandwidthSelector::select(std::span<const bool> tried,
                                                             des::RandomStream& rng) {
  util::require(tried.size() == distances_.size(), "tried mask must match group size");
  compute_weights(tried, bandwidths_, weights_);
  return sample_masked(weights_, tried, rng, masked_);
}

std::vector<double> DistanceBandwidthSelector::weights() const {
  std::vector<double> bandwidths;
  WeightVector weights = WeightVector::uniform(distances_.size());
  compute_weights({}, bandwidths, weights);
  return weights.values();
}

// ---------------------------------------------------------------- SP

ShortestPathSelector::ShortestPathSelector(net::NodeId source, const net::RouteTable& routes)
    : group_size_(routes.destination_count()) {
  order_.resize(group_size_);
  std::iota(order_.begin(), order_.end(), 0);
  const auto distances = route_distances(source, routes);
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::size_t a, std::size_t b) { return distances[a] < distances[b]; });
}

std::optional<std::size_t> ShortestPathSelector::select(std::span<const bool> tried,
                                                        des::RandomStream& /*rng*/) {
  util::require(tried.size() == group_size_, "tried mask must match group size");
  for (const std::size_t index : order_) {
    if (!tried[index]) {
      return index;
    }
  }
  return std::nullopt;
}

std::vector<double> ShortestPathSelector::weights() const {
  // Deterministic policy: all probability mass on the nearest member.
  std::vector<double> w(group_size_, 0.0);
  w[order_.front()] = 1.0;
  return w;
}

}  // namespace anyqos::core
