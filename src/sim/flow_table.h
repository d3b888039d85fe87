// Bookkeeping of active (admitted, not yet departed) anycast flows.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/net/topology.h"
#include "src/util/id_window.h"
#include "src/util/slot_arena.h"

namespace anyqos::sim {

using FlowId = std::uint64_t;

/// One admitted flow currently holding bandwidth.
struct ActiveFlow {
  FlowId id = 0;
  /// The admission request that created the flow (trace/span join key).
  std::uint64_t request_id = 0;
  net::NodeId source = net::kInvalidNode;
  std::size_t destination_index = 0;  ///< index into the anycast group
  net::Path route;                    ///< links holding the reservation
  net::Bandwidth bandwidth_bps = 0.0;
  double admitted_at = 0.0;
};

/// Id-keyed table of active flows with link-based lookup for fault handling.
///
/// Flow ids are issued in increasing order, so the table is an id window
/// (util::IdWindow) over pooled ActiveFlow slots: lookups are an index, not
/// a hash, and every scan walks the window, i.e. visits flows in ascending
/// id order with no sort. Storage is bounded by a small multiple of the
/// live flows, however many have come and gone.
class FlowTable {
 public:
  /// Registers a flow; assigns and returns a fresh id.
  FlowId insert(ActiveFlow flow);

  /// Re-registers a flow that was previously removed, keeping its id (path
  /// repair: the departure timer armed at admission still refers to it).
  /// The id must have been issued by this table and must not be active.
  void restore(ActiveFlow flow);

  /// Removes and returns the flow; throws std::invalid_argument if absent.
  ActiveFlow take(FlowId id);

  /// True when `id` is active (it may have been removed by a fault).
  [[nodiscard]] bool contains(FlowId id) const;
  [[nodiscard]] const ActiveFlow& get(FlowId id) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Ids of flows whose route crosses directed link `link`, in ascending id
  /// order (deterministic fault processing).
  [[nodiscard]] std::vector<FlowId> flows_using_link(net::LinkId link) const;

  /// Ids of flows pinned to group member `destination_index`, in ascending id
  /// order (deterministic churn processing).
  [[nodiscard]] std::vector<FlowId> flows_to_member(std::size_t destination_index) const;

  /// Applies `visit` to every active flow in ascending id order.
  void for_each(const std::function<void(const ActiveFlow&)>& visit) const;

  /// Flow slots allocated (live or free).
  [[nodiscard]] std::size_t slot_capacity() const { return flows_.capacity(); }
  /// Entries of the id -> slot window (ring plus spilled stragglers).
  [[nodiscard]] std::size_t window_capacity() const { return window_.capacity(); }

 private:
  /// Calls `visit(flow)` for every active flow in ascending id order.
  template <typename Visit>
  void scan(Visit&& visit) const {
    window_.for_each([&](FlowId /*id*/, std::uint32_t slot) { visit(flows_[slot]); });
  }
  /// Stores `flow` (whose id is set) in a free slot.
  void place(ActiveFlow flow);

  util::SlotArena<ActiveFlow> flows_;
  util::IdWindow window_;  // flow id -> slot
  std::size_t size_ = 0;
  FlowId next_id_ = 1;
};

}  // namespace anyqos::sim
