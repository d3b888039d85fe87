// The layer ladder: timed calls into single public functions of net, core
// and signaling, on the workload's own topology, group and routes. Each is
// a per-operation cost; multiplied by the traced run's operation counts
// they should add up to the traced wall time, and the gap is reported.
#pragma once

#include <array>
#include <vector>

#include "harness/workloads.h"

namespace perfbench {

struct LadderCosts {
  /// DestinationSelector::select, ns per call, per DAC system (0 = not run).
  std::array<double, kAllSystems.size()> select_ns{};
  /// PROBE + PROBE_REPLY hops one select() charges (WD/D+B probes inside
  /// select, so its select cost already includes that probing).
  std::array<double, kAllSystems.size()> select_probe_hops{};
  /// ReservationProtocol::reserve + teardown, ns per hop traversed.
  double walk_ns_per_hop = 0.0;
  /// ProbeService::route_bandwidth, ns per hop traversed.
  double probe_ns_per_hop = 0.0;
  /// RouteTable constructor and RouteTable::recompute (all links up), ms.
  double route_table_ms = 0.0;
  double recompute_ms = 0.0;
};

/// Measures every rung on `model` for the DAC systems in `systems` (R = 2,
/// flows of `flow_bandwidth_bps`). Each figure is the median of several
/// timed rounds.
LadderCosts measure_ladder(const JobModel& model, const std::vector<System>& systems,
                           double flow_bandwidth_bps);

}  // namespace perfbench
