#include "src/net/multipath.h"

#include "src/util/require.h"

namespace anyqos::net {

MultiPathRouteTable::MultiPathRouteTable(const Topology& topology,
                                         std::vector<NodeId> destinations,
                                         std::size_t paths_per_pair)
    : destinations_(std::move(destinations)),
      k_(paths_per_pair),
      router_count_(topology.router_count()) {
  util::require(!destinations_.empty(), "need at least one destination");
  util::require(paths_per_pair >= 1, "need at least one path per pair");
  paths_.reserve(router_count_ * destinations_.size());
  for (NodeId source = 0; source < router_count_; ++source) {
    for (const NodeId dest : destinations_) {
      std::vector<Path> ranked = k_shortest_paths(topology, source, dest, k_);
      util::require(!ranked.empty(), [&] {
        return "topology is disconnected: no route from " + std::to_string(source) + " to " +
               std::to_string(dest);
      });
      paths_.push_back(std::move(ranked));
    }
  }
}

const std::vector<Path>& MultiPathRouteTable::bucket(NodeId source, std::size_t index) const {
  util::require(source < router_count_, "source out of range");
  util::require(index < destinations_.size(), "destination index out of range");
  return paths_[source * destinations_.size() + index];
}

std::size_t MultiPathRouteTable::path_count(NodeId source, std::size_t index) const {
  return bucket(source, index).size();
}

const Path& MultiPathRouteTable::path(NodeId source, std::size_t index,
                                      std::size_t rank) const {
  const std::vector<Path>& ranked = bucket(source, index);
  util::require(rank < ranked.size(), "path rank out of range");
  return ranked[rank];
}

std::size_t MultiPathRouteTable::alternatives(NodeId source) const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < destinations_.size(); ++i) {
    total += path_count(source, i);
  }
  return total;
}

}  // namespace anyqos::net
