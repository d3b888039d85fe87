#include "src/net/distance_vector.h"

#include <algorithm>

#include "src/util/require.h"

namespace anyqos::net {

DistanceVectorProtocol::DistanceVectorProtocol(const Topology& topology,
                                               std::size_t max_diameter)
    : topology_(&topology),
      max_diameter_(max_diameter),
      table_(topology.router_count() * topology.router_count()),
      link_down_(topology.link_count(), 0) {
  util::require(max_diameter >= 1, "max diameter must be at least 1");
  // Seed: every router knows itself at distance 0.
  for (NodeId r = 0; r < topology.router_count(); ++r) {
    entry_mut(r, r).distance = 0;
  }
}

RoutingTableEntry& DistanceVectorProtocol::entry_mut(NodeId router, NodeId destination) {
  return table_[router * topology_->router_count() + destination];
}

const RoutingTableEntry& DistanceVectorProtocol::entry(NodeId router,
                                                       NodeId destination) const {
  util::require(router < topology_->router_count(), "router out of range");
  util::require(destination < topology_->router_count(), "destination out of range");
  return table_[router * topology_->router_count() + destination];
}

bool DistanceVectorProtocol::link_usable(LinkId link) const {
  return link_down_[link] == 0;
}

bool DistanceVectorProtocol::step() {
  const std::size_t n = topology_->router_count();
  bool changed = false;
  // Synchronous exchange: relax against the *previous* round's tables so the
  // round semantics match simultaneous advertisements.
  const std::vector<RoutingTableEntry> snapshot = table_;
  const auto snapshot_entry = [&](NodeId router, NodeId destination) -> const RoutingTableEntry& {
    return snapshot[router * n + destination];
  };
  for (NodeId r = 0; r < n; ++r) {
    for (NodeId dest = 0; dest < n; ++dest) {
      if (dest == r) {
        continue;
      }
      // Best offer among neighbours' advertised distances + 1.
      std::size_t best = kUnreachable;
      LinkId best_link = kInvalidLink;
      for (const LinkId out : topology_->graph().out_arcs(r)) {
        if (!link_usable(out)) {
          continue;
        }
        const NodeId neighbour = topology_->link(out).to;
        const std::size_t advertised = snapshot_entry(neighbour, dest).distance;
        if (advertised == kUnreachable) {
          continue;
        }
        const std::size_t via = advertised + 1;
        if (via > max_diameter_) {
          continue;  // infinity metric: beyond the diameter bound is "unreachable"
        }
        // Deterministic tie-break: first (lowest-id) outgoing link wins.
        if (via < best) {
          best = via;
          best_link = out;
        }
      }
      RoutingTableEntry& current = entry_mut(r, dest);
      if (current.distance != best || current.next_hop != best_link) {
        current.distance = best;
        current.next_hop = best_link;
        changed = true;
      }
    }
  }
  converged_ = !changed;
  return changed;
}

std::size_t DistanceVectorProtocol::converge(std::size_t max_rounds) {
  util::require(max_rounds >= 1, "need at least one round");
  for (std::size_t round = 1; round <= max_rounds; ++round) {
    if (!step()) {
      return round;
    }
  }
  return max_rounds;
}

std::optional<Path> DistanceVectorProtocol::path(NodeId source, NodeId destination) const {
  util::require(source < topology_->router_count(), "source out of range");
  util::require(destination < topology_->router_count(), "destination out of range");
  Path path;
  path.source = source;
  path.destination = destination;
  NodeId at = source;
  std::size_t hops = 0;
  while (at != destination) {
    const RoutingTableEntry& e = entry(at, destination);
    if (e.distance == kUnreachable || e.next_hop == kInvalidLink) {
      return std::nullopt;
    }
    path.links.push_back(e.next_hop);
    at = topology_->link(e.next_hop).to;
    if (++hops > max_diameter_) {
      return std::nullopt;  // transient loop in unconverged tables
    }
  }
  return path;
}

void DistanceVectorProtocol::fail_duplex_link(LinkId link) {
  util::require(link < topology_->link_count(), "link out of range");
  const LinkId reverse = topology_->reverse_link(link);
  util::require(link_usable(link) && link_usable(reverse), "link already failed");
  link_down_[link] = 1;
  link_down_[reverse] = 1;
  // Poison: both endpoint routers drop every route that used the dead link,
  // as the loss of keepalives would trigger.
  const std::size_t n = topology_->router_count();
  for (const LinkId dead : {link, reverse}) {
    const NodeId router = topology_->link(dead).from;
    for (NodeId dest = 0; dest < n; ++dest) {
      RoutingTableEntry& e = entry_mut(router, dest);
      if (e.next_hop == dead) {
        e.distance = kUnreachable;
        e.next_hop = kInvalidLink;
      }
    }
  }
  converged_ = false;
}

void DistanceVectorProtocol::restore_duplex_link(LinkId link) {
  util::require(link < topology_->link_count(), "link out of range");
  const LinkId reverse = topology_->reverse_link(link);
  util::require(!link_usable(link) && !link_usable(reverse), "link is not failed");
  link_down_[link] = 0;
  link_down_[reverse] = 0;
  converged_ = false;
}

std::vector<Path> distance_vector_routes(const Topology& topology,
                                         const std::vector<NodeId>& destinations) {
  util::require(!destinations.empty(), "need at least one destination");
  DistanceVectorProtocol protocol(topology);
  protocol.converge();
  util::require(protocol.converged(), "distance-vector protocol failed to converge");
  std::vector<Path> routes;
  routes.reserve(topology.router_count() * destinations.size());
  for (NodeId source = 0; source < topology.router_count(); ++source) {
    for (const NodeId dest : destinations) {
      auto path = protocol.path(source, dest);
      util::require(path.has_value(), [&] {
        return "topology is disconnected: no route from " + std::to_string(source) + " to " +
               std::to_string(dest);
      });
      routes.push_back(std::move(*path));
    }
  }
  return routes;
}

}  // namespace anyqos::net
