#include "src/net/reconvergence.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/net/routing.h"
#include "src/net/topologies.h"

namespace anyqos::net {
namespace {

TEST(ReconvergencePolicy, InstantIsZeroEverywhere) {
  InstantReconvergence policy;
  EXPECT_DOUBLE_EQ(policy.delay_s(topologies::line(2)), 0.0);
  EXPECT_DOUBLE_EQ(policy.delay_s(topologies::mci_backbone()), 0.0);
  EXPECT_EQ(policy.name(), "instant");
}

TEST(ReconvergencePolicy, FixedIgnoresTopologyShape) {
  FixedReconvergence policy(2.5);
  EXPECT_DOUBLE_EQ(policy.delay_s(topologies::line(2)), 2.5);
  EXPECT_DOUBLE_EQ(policy.delay_s(topologies::grid(5, 5)), 2.5);
  EXPECT_EQ(policy.name(), "fixed");
  EXPECT_THROW(FixedReconvergence(-1.0), std::invalid_argument);
}

TEST(ReconvergencePolicy, FloodingScalesWithDiameter) {
  // delay = (diameter + 1) rounds: the LSA reaches the farthest router in
  // `diameter` flooding rounds, plus one round for the local SPF.
  FloodingReconvergence policy(0.1);
  const Topology line5 = topologies::line(5);  // diameter 4
  EXPECT_DOUBLE_EQ(policy.delay_s(line5), 0.5);
  FloodingReconvergence ring_policy(0.1);
  const Topology ring8 = topologies::ring(8);  // diameter 4
  EXPECT_DOUBLE_EQ(ring_policy.delay_s(ring8), 0.5);
  EXPECT_EQ(policy.name(), "flooding");
  EXPECT_THROW(FloodingReconvergence(0.0), std::invalid_argument);
}

TEST(TopologyDiameter, MatchesKnownShapes) {
  EXPECT_EQ(topology_diameter(topologies::line(6)), 5u);
  EXPECT_EQ(topology_diameter(topologies::ring(6)), 3u);
  EXPECT_EQ(topology_diameter(topologies::star(5)), 2u);
  EXPECT_EQ(topology_diameter(topologies::grid(3, 3)), 4u);
  EXPECT_EQ(topology_diameter(topologies::mci_backbone()), 5u);
}

std::size_t degree(const Topology& topo, NodeId node) {
  return topo.graph().out_arcs(node).size();
}

double average_degree(const Topology& topo) {
  return 2.0 * static_cast<double>(topo.duplex_link_count()) /
         static_cast<double>(topo.router_count());
}

TEST(GraphMetrics, LineDiameterAndDegrees) {
  const Topology topo = topologies::line(5);
  EXPECT_EQ(topology_diameter(topo), 4u);
  EXPECT_EQ(degree(topo, 0), 1u);
  EXPECT_EQ(degree(topo, 2), 2u);
  EXPECT_EQ(degree(topo, 4), 1u);
  EXPECT_DOUBLE_EQ(average_degree(topo), 2.0 * 4.0 / 5.0);
}

TEST(GraphMetrics, RingIsSymmetric) {
  const Topology topo = topologies::ring(8);
  EXPECT_EQ(topology_diameter(topo), 4u);
  for (NodeId node = 0; node < topo.router_count(); ++node) {
    EXPECT_EQ(degree(topo, node), 2u);
  }
  EXPECT_DOUBLE_EQ(average_degree(topo), 2.0);
}

TEST(GraphMetrics, StarHasDiameterTwo) {
  const Topology topo = topologies::star(10);
  EXPECT_EQ(topology_diameter(topo), 2u);
  EXPECT_EQ(degree(topo, 0), 9u);
}

TEST(GraphMetrics, MciBackboneShape) {
  const Topology topo = topologies::mci_backbone();
  ASSERT_TRUE(topo.connected());
  // 33 duplex links over 19 routers: average degree ~3.47.
  EXPECT_NEAR(average_degree(topo), 2.0 * 33.0 / 19.0, 1e-12);
  const std::size_t d = topology_diameter(topo);
  EXPECT_GE(d, 4u);
  EXPECT_LE(d, 7u);
  double total = 0.0;
  std::size_t pairs = 0;
  for (NodeId source = 0; source < topo.router_count(); ++source) {
    const auto dist = hop_distances(topo, source);
    for (NodeId dest = 0; dest < topo.router_count(); ++dest) {
      if (dest != source) {
        total += static_cast<double>(dist[dest]);
        ++pairs;
      }
    }
  }
  const double mean_distance = total / static_cast<double>(pairs);
  EXPECT_GT(mean_distance, 1.5);
  EXPECT_LT(mean_distance, static_cast<double>(d));
}

TEST(RouteTableRecompute, AllLinksUpReproducesTheInitialTable) {
  // The determinism cornerstone: recompute with everything in service must
  // be byte-for-byte the constructor's table (same BFS tie-break).
  const Topology topo = topologies::mci_backbone();
  RouteTable fresh(topo, {0, 4, 9, 14});
  RouteTable cycled(topo, {0, 4, 9, 14});
  const std::vector<char> all_up(topo.link_count() / 2, 1);
  cycled.recompute(topo, all_up);
  for (NodeId s = 0; s < topo.router_count(); ++s) {
    for (std::size_t i = 0; i < fresh.destination_count(); ++i) {
      ASSERT_TRUE(cycled.has_route(s, i));
      EXPECT_EQ(cycled.route(s, i).links, fresh.route(s, i).links) << s << "->" << i;
    }
  }
}

TEST(RouteTableRecompute, RoutesAvoidDownLinksAndMatchPrunedBfs) {
  const Topology topo = topologies::grid(4, 4);
  RouteTable table(topo, {0, 15});
  std::vector<char> duplex_up(topo.link_count() / 2, 1);
  const LinkId victim = *topo.find_link(5, 6);
  duplex_up[victim / 2] = 0;
  table.recompute(topo, duplex_up);
  for (NodeId s = 0; s < topo.router_count(); ++s) {
    for (std::size_t i = 0; i < table.destination_count(); ++i) {
      ASSERT_TRUE(table.has_route(s, i)) << "grid stays connected";
      for (const LinkId link : table.route(s, i).links) {
        EXPECT_NE(link / 2, victim / 2) << s << "->" << i;
      }
    }
  }
}

TEST(RouteTableRecompute, PartitionKeepsStalePathButClearsHasRoute) {
  // Line 0-1-2: cutting 1-2 strands destination index 1 (router 2) for
  // sources 0 and 1. The stale path must survive (distance() stays defined
  // for selectors) while has_route() reports the partition.
  const Topology topo = topologies::line(3);
  RouteTable table(topo, {0, 2});
  const Path before = table.route(0, 1);
  std::vector<char> duplex_up(topo.link_count() / 2, 1);
  duplex_up[*topo.find_link(1, 2) / 2] = 0;
  table.recompute(topo, duplex_up);
  EXPECT_FALSE(table.has_route(0, 1));
  EXPECT_FALSE(table.has_route(1, 1));
  EXPECT_TRUE(table.has_route(0, 0));
  EXPECT_EQ(table.route(0, 1).links, before.links);  // stale but defined
  // shortest_destination skips the stranded member.
  EXPECT_EQ(table.shortest_destination(1), 0u);
  // Reconnecting restores reachability and the original route.
  duplex_up[*topo.find_link(1, 2) / 2] = 1;
  table.recompute(topo, duplex_up);
  EXPECT_TRUE(table.has_route(0, 1));
  EXPECT_EQ(table.route(0, 1).links, before.links);
}

}  // namespace
}  // namespace anyqos::net
