#include "src/sim/flow_table.h"

#include <algorithm>
#include <string>

#include "src/util/require.h"

namespace anyqos::sim {

void FlowTable::place(ActiveFlow flow) {
  const std::uint32_t slot = flows_.acquire();
  window_.assign(flow.id, slot);
  flows_[slot] = std::move(flow);
  ++size_;
}

FlowId FlowTable::insert(ActiveFlow flow) {
  const FlowId id = next_id_++;
  flow.id = id;
  place(std::move(flow));
  return id;
}

void FlowTable::restore(ActiveFlow flow) {
  util::require(flow.id != 0 && flow.id < next_id_, "restore requires an id this table issued");
  util::require(!contains(flow.id),
                [&] { return "flow is already active: " + std::to_string(flow.id); });
  place(std::move(flow));
}

ActiveFlow FlowTable::take(FlowId id) {
  const std::uint32_t slot = window_.find(id);
  util::require(slot != util::IdWindow::kNone,
                [&] { return "flow not active: " + std::to_string(id); });
  ActiveFlow flow = std::move(flows_[slot]);
  flows_.release(slot);
  window_.vacate(id);
  --size_;
  return flow;
}

bool FlowTable::contains(FlowId id) const { return window_.find(id) != util::IdWindow::kNone; }

const ActiveFlow& FlowTable::get(FlowId id) const {
  const std::uint32_t slot = window_.find(id);
  util::require(slot != util::IdWindow::kNone,
                [&] { return "flow not active: " + std::to_string(id); });
  return flows_[slot];
}

std::vector<FlowId> FlowTable::flows_using_link(net::LinkId link) const {
  std::vector<FlowId> ids;
  scan([&](const ActiveFlow& flow) {
    if (std::find(flow.route.links.begin(), flow.route.links.end(), link) !=
        flow.route.links.end()) {
      ids.push_back(flow.id);
    }
  });
  return ids;
}

std::vector<FlowId> FlowTable::flows_to_member(std::size_t destination_index) const {
  std::vector<FlowId> ids;
  scan([&](const ActiveFlow& flow) {
    if (flow.destination_index == destination_index) {
      ids.push_back(flow.id);
    }
  });
  return ids;
}

void FlowTable::for_each(const std::function<void(const ActiveFlow&)>& visit) const {
  scan(visit);
}

}  // namespace anyqos::sim
