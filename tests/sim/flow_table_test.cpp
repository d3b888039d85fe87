#include "src/sim/flow_table.h"

#include <gtest/gtest.h>

#include <vector>

namespace anyqos::sim {
namespace {

ActiveFlow flow_on_links(std::initializer_list<net::LinkId> links) {
  ActiveFlow flow;
  flow.source = 0;
  flow.destination_index = 0;
  flow.bandwidth_bps = 64'000.0;
  flow.route.source = 0;
  flow.route.destination = 1;
  flow.route.links.assign(links);
  return flow;
}

TEST(FlowTable, InsertAssignsFreshIds) {
  FlowTable table;
  const FlowId a = table.insert(flow_on_links({0}));
  const FlowId b = table.insert(flow_on_links({1}));
  EXPECT_NE(a, b);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.contains(a));
}

TEST(FlowTable, TakeRemovesAndReturns) {
  FlowTable table;
  const FlowId id = table.insert(flow_on_links({3, 4}));
  const ActiveFlow flow = table.take(id);
  EXPECT_EQ(flow.id, id);
  EXPECT_EQ(flow.route.links.size(), 2u);
  EXPECT_FALSE(table.contains(id));
  EXPECT_TRUE(table.empty());
}

TEST(FlowTable, TakeMissingThrows) {
  FlowTable table;
  EXPECT_THROW(table.take(42), std::invalid_argument);
  const FlowId id = table.insert(flow_on_links({0}));
  table.take(id);
  EXPECT_THROW(table.take(id), std::invalid_argument);
}

TEST(FlowTable, GetWithoutRemoving) {
  FlowTable table;
  const FlowId id = table.insert(flow_on_links({7}));
  EXPECT_EQ(table.get(id).route.links[0], 7u);
  EXPECT_TRUE(table.contains(id));
  EXPECT_THROW(static_cast<void>(table.get(id + 1)), std::invalid_argument);
}

TEST(FlowTable, FlowsUsingLinkFindsExactlyMatching) {
  FlowTable table;
  const FlowId a = table.insert(flow_on_links({1, 2}));
  table.insert(flow_on_links({3}));
  const FlowId c = table.insert(flow_on_links({2, 4}));
  const auto on_2 = table.flows_using_link(2);
  ASSERT_EQ(on_2.size(), 2u);
  EXPECT_EQ(on_2[0], a);  // ascending id order
  EXPECT_EQ(on_2[1], c);
  EXPECT_TRUE(table.flows_using_link(99).empty());
}

TEST(FlowTable, ForEachVisitsInIdOrder) {
  FlowTable table;
  table.insert(flow_on_links({0}));
  table.insert(flow_on_links({1}));
  table.insert(flow_on_links({2}));
  std::vector<FlowId> seen;
  table.for_each([&](const ActiveFlow& flow) { seen.push_back(flow.id); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_LT(seen[0], seen[1]);
  EXPECT_LT(seen[1], seen[2]);
}

TEST(FlowTable, IdsNotReusedAfterRemoval) {
  FlowTable table;
  const FlowId a = table.insert(flow_on_links({0}));
  table.take(a);
  const FlowId b = table.insert(flow_on_links({0}));
  EXPECT_GT(b, a);
}

TEST(FlowTable, RestoreBelowWindowBase) {
  // Path repair takes a flow out and later restores it under its old id;
  // by then every older flow may have departed, so the id lies below the
  // table's id window and the window must extend backwards.
  FlowTable table;
  const FlowId a = table.insert(flow_on_links({1}));
  const FlowId b = table.insert(flow_on_links({2}));
  const FlowId c = table.insert(flow_on_links({3}));
  ActiveFlow parked = table.take(a);
  table.take(b);
  table.restore(std::move(parked));
  EXPECT_TRUE(table.contains(a));
  EXPECT_FALSE(table.contains(b));
  EXPECT_EQ(table.get(a).route.links[0], 1u);
  EXPECT_EQ(table.size(), 2u);
  std::vector<FlowId> seen;
  table.for_each([&](const ActiveFlow& flow) { seen.push_back(flow.id); });
  EXPECT_EQ(seen, (std::vector<FlowId>{a, c}));
  // New ids keep counting past every id issued so far.
  EXPECT_GT(table.insert(flow_on_links({4})), c);
}

TEST(FlowTable, RestoreRejectsActiveOrUnissuedIds) {
  FlowTable table;
  const FlowId id = table.insert(flow_on_links({1}));
  ActiveFlow copy = table.get(id);
  EXPECT_THROW(table.restore(copy), std::invalid_argument);
  copy.id = id + 1;
  EXPECT_THROW(table.restore(copy), std::invalid_argument);
  copy.id = 0;
  EXPECT_THROW(table.restore(copy), std::invalid_argument);
}

TEST(FlowTable, ScansStayAscendingAfterInterleavedTakeAndRestore) {
  FlowTable table;
  std::vector<FlowId> ids;
  for (net::LinkId link = 0; link < 8; ++link) {
    ActiveFlow flow = flow_on_links({link % 2 == 0 ? 10u : 11u, link});
    flow.destination_index = link % 3;
    ids.push_back(table.insert(std::move(flow)));
  }
  ActiveFlow f0 = table.take(ids[0]);
  ActiveFlow f3 = table.take(ids[3]);
  ActiveFlow f6 = table.take(ids[6]);
  table.restore(std::move(f3));
  table.take(ids[1]);
  table.restore(std::move(f6));
  table.restore(std::move(f0));
  table.take(ids[7]);
  // Live: 0, 2, 3, 4, 5, 6.
  std::vector<FlowId> all;
  table.for_each([&](const ActiveFlow& flow) { all.push_back(flow.id); });
  EXPECT_EQ(all, (std::vector<FlowId>{ids[0], ids[2], ids[3], ids[4], ids[5], ids[6]}));
  EXPECT_EQ(table.flows_using_link(10), (std::vector<FlowId>{ids[0], ids[2], ids[4], ids[6]}));
  EXPECT_EQ(table.flows_using_link(11), (std::vector<FlowId>{ids[3], ids[5]}));
  EXPECT_EQ(table.flows_to_member(0), (std::vector<FlowId>{ids[0], ids[3], ids[6]}));
  EXPECT_EQ(table.flows_to_member(2), (std::vector<FlowId>{ids[2], ids[5]}));
}

TEST(FlowTable, StorageTracksLiveFlowsNotTotalInserted) {
  // 100,000 flows pass through with ~50 live at a time (oldest departs
  // first): slot and id-window storage stay a small multiple of that.
  FlowTable table;
  std::vector<FlowId> live;
  std::size_t oldest = 0;
  for (int i = 0; i < 100'000; ++i) {
    live.push_back(table.insert(flow_on_links({0})));
    if (live.size() - oldest > 50) {
      table.take(live[oldest++]);
    }
  }
  EXPECT_EQ(table.size(), 50u);
  EXPECT_LE(table.slot_capacity(), 256u);
  EXPECT_LE(table.window_capacity(), 4u * 51u);
}

}  // namespace
}  // namespace anyqos::sim
