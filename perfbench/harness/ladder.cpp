#include "harness/ladder.h"

#include <algorithm>
#include <memory>

#include "harness/timing.h"

#include "src/core/group.h"
#include "src/des/random.h"
#include "src/net/bandwidth.h"
#include "src/net/routing.h"
#include "src/signaling/probe.h"
#include "src/signaling/rsvp.h"

namespace perfbench {

using namespace anyqos;

namespace {

constexpr int kRounds = 5;
constexpr double kMinRoundS = 0.01;  // repeat a rung until a round lasts this long
constexpr double kAnycastShare = 0.2;

/// Median over kRounds of (round wall time / units of work the round did).
/// `body` runs the rung once and returns its units (calls or hops).
template <typename Body>
double median_cost_ns(Body&& body) {
  std::vector<double> per_unit;
  for (int round = 0; round < kRounds; ++round) {
    double units = 0.0;
    const Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    do {
      units += body();
      elapsed = seconds_since(start);
    } while (elapsed < kMinRoundS);
    per_unit.push_back(elapsed * 1e9 / units);
  }
  std::nth_element(per_unit.begin(), per_unit.begin() + kRounds / 2, per_unit.end());
  return per_unit[kRounds / 2];
}

}  // namespace

LadderCosts measure_ladder(const JobModel& model, const std::vector<System>& systems,
                           double flow_bandwidth_bps) {
  LadderCosts costs;
  const net::Topology& topology = model.topology;
  net::BandwidthLedger ledger(topology, kAnycastShare);
  const net::RouteTable routes(topology, model.members);
  const core::AnycastGroup group("anycast://perfbench", model.members);
  const std::size_t k = model.members.size();

  std::vector<const net::Path*> paths;
  for (const net::NodeId source : model.sources) {
    for (std::size_t index = 0; index < k; ++index) {
      paths.push_back(&routes.route(source, index));
    }
  }

  for (const System system : systems) {
    if (system == System::kGdi) {
      continue;  // the GDI oracle has no destination selector
    }
    signaling::MessageCounter counter;
    signaling::ProbeService probe(ledger, counter);
    std::vector<std::unique_ptr<core::DestinationSelector>> selectors;
    for (const net::NodeId source : model.sources) {
      core::SelectorEnvironment env;
      env.source = source;
      env.group = &group;
      env.routes = &routes;
      env.probe = &probe;
      env.flow_bandwidth = flow_bandwidth_bps;
      selectors.push_back(core::make_selector(selection_algorithm(system), env));
    }
    des::RandomStream rng = des::SeedSequence(1).stream("perfbench-select");
    const std::unique_ptr<bool[]> tried = std::make_unique<bool[]>(k);
    std::fill(tried.get(), tried.get() + k, false);
    const std::span<const bool> view(tried.get(), k);
    std::size_t calls = 0;
    const std::size_t index = static_cast<std::size_t>(system);
    costs.select_ns[index] = median_cost_ns([&] {
      for (const auto& selector : selectors) {
        keep(selector->select(view, rng));
      }
      calls += selectors.size();
      return static_cast<double>(selectors.size());
    });
    costs.select_probe_hops[index] =
        static_cast<double>(counter.by_kind(signaling::MessageKind::kProbe) +
                            counter.by_kind(signaling::MessageKind::kProbeReply)) /
        static_cast<double>(std::max<std::size_t>(calls, 1));
  }

  {
    signaling::MessageCounter counter;
    signaling::ReservationProtocol rsvp(ledger, counter);
    costs.walk_ns_per_hop = median_cost_ns([&] {
      const std::uint64_t before = counter.total();
      for (const net::Path* path : paths) {
        if (rsvp.reserve(*path, flow_bandwidth_bps).admitted) {
          rsvp.teardown(*path, flow_bandwidth_bps);
        }
      }
      return static_cast<double>(counter.total() - before);
    });
  }
  {
    signaling::MessageCounter counter;
    signaling::ProbeService probe(ledger, counter);
    costs.probe_ns_per_hop = median_cost_ns([&] {
      const std::uint64_t before = counter.total();
      for (const net::Path* path : paths) {
        keep(probe.route_bandwidth(*path));
      }
      return static_cast<double>(counter.total() - before);
    });
  }
  costs.route_table_ms = median_cost_ns([&] {
                           const net::RouteTable table(topology, model.members);
                           keep(table.distance(model.sources.front(), 0));
                           return 1.0;
                         }) /
                         1e6;
  {
    net::RouteTable table(topology, model.members);
    const std::vector<char> all_up(topology.duplex_link_count(), 1);
    costs.recompute_ms = median_cost_ns([&] {
                           table.recompute(topology, all_up);
                           return 1.0;
                         }) /
                         1e6;
  }
  return costs;
}

}  // namespace perfbench
