// The scenario plane: one serializable description of one chaos run.
//
// A Scenario captures, in a single JSON document, every axis a run can be
// perturbed on — workload, system under test, explicit link faults, member
// churn, node crashes, correlated regional outages, random fault axes
// (re-drawn deterministically from the scenario seed via the shared
// scenario_schedules builder), reconvergence policy, governor knobs, and
// replayed ops directives. Save -> load -> run is byte-identical to the
// in-memory run (tested), so any run — a hand-written experiment, a CI
// chaos cell, or a chaosfuzz-shrunk repro — is a committed, replayable
// artifact. make_scenario_run is the only lowering onto SimulationConfig:
// dacsim (its flags or --scenario), every chaossim cell, and tools/chaosfuzz
// all go through it.
//
// The loader and the lowering are the one scenario validator. To check a
// file without running it, `chaosfuzz --base=FILE --iterations=0` loads it,
// lowers it and builds its Simulation: exit 0 when it is valid, exit 2 with
// the rejecting message when it is not. A key missing from a file takes the
// default written in the structs below; an unknown key is an error.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/control/directive.h"
#include "src/control/governor.h"
#include "src/net/reconvergence.h"
#include "src/net/topology.h"
#include "src/sim/faults.h"
#include "src/sim/simulation.h"
#include "src/util/json.h"

namespace anyqos::sim {

/// Schema tag carried by every scenario file ("schema" key).
inline constexpr std::string_view kScenarioSchema = "anyqos.scenario/1";

/// Resilient-signaling knobs (signaling::ResilienceOptions flattened with
/// its FaultPlaneOptions). Presence of the block turns the resilient
/// protocol on; absence keeps the paper's fault-free walk.
struct ScenarioResilience {
  double loss_probability = 0.0;
  double hop_delay_s = 0.0;
  double hop_jitter_s = 0.0;
  double retransmit_timeout_s = 1.0;
  double backoff_factor = 2.0;
  double backoff_jitter = 0.1;
  std::size_t max_retransmits = 3;
  double orphan_hold_s = 30.0;
};

/// Routing reconvergence model: "instant", "fixed" (param_s = delay), or
/// "flooding" (param_s = per-round delay).
struct ScenarioReconvergence {
  std::string policy = "instant";
  double param_s = 0.0;
};

/// Overload-governor configuration (control::GovernorOptions subset that
/// the runtime knobs address, plus the mechanism switches).
struct ScenarioGovernor {
  bool adaptive_retrial = true;
  bool member_breakers = true;
  double window_s = 50.0;
  std::size_t min_tries = 3;
  std::size_t breaker_threshold = 5;
  double breaker_cooldown_s = 60.0;
  double shed_budget_msgs_per_s = 0.0;
  double shed_burst_msgs = 0.0;
};

/// Correlated regional outage, kept symbolic (epicenter + radius) rather
/// than expanded so shrinking can drop it as one entry.
struct RegionalOutageSpec {
  net::NodeId epicenter = 0;
  std::size_t radius_hops = 0;
  double fail_at = 0.0;
  double repair_at = 0.0;
};

/// One complete, serializable chaos run description.
struct Scenario {
  std::string name = "scenario";
  std::string topology = "mci";  ///< build_scenario_topology spec
  std::uint64_t seed = 1;

  // Workload.
  double lambda = 20.0;
  double mean_holding_s = 180.0;
  double flow_bandwidth_bps = 64'000.0;
  std::vector<net::NodeId> sources;

  // System under test (DAC only — the fuzzable surface is the distributed
  // machinery; GDI and the centralized baseline have no signaling to break).
  std::string algorithm = "ED";
  std::size_t max_tries = 2;
  double alpha = 0.5;
  double anycast_share = 0.2;
  std::vector<net::NodeId> group;
  bool failover_readmit = true;
  bool path_repair = false;

  // Run control.
  double warmup_s = 0.0;  ///< chaos runs default warmup-free: exact reconciliation
  double measure_s = 2'000.0;
  bool drain_to_quiescence = true;
  std::size_t drain_max_events = 0;  ///< drain watchdog (0 = uncapped)
  double drain_max_sim_s = 0.0;

  // Optional planes.
  std::optional<ScenarioResilience> resilience;
  std::optional<ScenarioReconvergence> reconvergence;
  std::optional<ScenarioGovernor> governor;

  // Random fault axes, re-drawn from `seed` via scenario_schedules on every
  // run (so the file stays small); materialize_random_axes expands them
  // into the explicit lists below when a tool needs entry-level control.
  FaultAxes axes;

  // Explicit fault entries (applied in addition to the axes' draws).
  std::vector<LinkFault> link_faults;
  std::vector<MemberChurnEvent> churn;
  std::vector<NodeFault> node_faults;
  std::vector<RegionalOutageSpec> regional_outages;

  // Replayed ops directives (requires `governor`).
  std::vector<control::TimedDirective> ops;

  /// Total explicit fault entries (the shrinker's size metric).
  [[nodiscard]] std::size_t fault_entries() const {
    return link_faults.size() + churn.size() + node_faults.size() +
           regional_outages.size();
  }
};

/// Builds a topology from a scenario spec: "mci", "line:N", "ring:N",
/// "star:N", "grid:RxC", "waxman:NxSEED", or "file:PATH" (topology_io.h).
/// The one spec parser behind every front end's --topology. Throws
/// std::invalid_argument naming the spec when it is unknown or a size is
/// missing or non-numeric.
net::Topology build_scenario_topology(const std::string& spec);

/// Scenario -> JSON document (fixed key order, round-trip-exact numbers;
/// dump(true) of the result is the canonical file format).
util::JsonValue scenario_to_json(const Scenario& scenario);
/// JSON document -> Scenario. Throws std::invalid_argument on a missing
/// schema tag, unknown keys (typo safety for repro files), wrong types,
/// out-of-order fault windows, unsorted or negative ops times, and values
/// outside the domains the lowering does not check itself (empty name,
/// alpha and backoff_jitter outside [0,1], negative param_s, negative axis
/// rates, non-positive axis means).
Scenario scenario_from_json(const util::JsonValue& document);

/// Canonical file text (pretty JSON, trailing newline).
std::string save_scenario(const Scenario& scenario);
/// Parses + validates scenario file text.
Scenario load_scenario(std::string_view text);
/// Reads and loads the scenario file at `path` (std::invalid_argument when
/// it cannot be opened).
Scenario load_scenario_file(const std::string& path);

/// Parses a comma list of node ids (the front ends' --group/--sources
/// format); std::invalid_argument naming `what` on anything else.
std::vector<net::NodeId> parse_node_list(std::string_view text, std::string_view what);

/// Expands the random axes into the explicit entry lists (via the shared
/// scenario_schedules builder on `topology`) and zeroes the axes, so every
/// fault becomes an individually addressable entry. Idempotent once axes
/// are zero. The expanded scenario runs identically to the original.
void materialize_random_axes(Scenario& scenario, const net::Topology& topology);

/// Everything needed to run a scenario. The config's reconvergence/governor
/// pointers alias the owned objects below, and `Simulation` keeps a
/// reference to `topology` — construct the Simulation only after this
/// object has its final address, and keep it alive through run().
struct ScenarioRun {
  net::Topology topology;
  SimulationConfig config;
  std::unique_ptr<net::ReconvergencePolicy> reconvergence;
  std::unique_ptr<control::OverloadGovernor> governor;

  ScenarioRun() = default;
  ScenarioRun(ScenarioRun&&) = delete;  // config holds pointers into *this
  ScenarioRun& operator=(ScenarioRun&&) = delete;
};

/// Lowers a scenario onto the simulation API: builds the topology, draws
/// the random axes, expands regional outages, and wires the optional
/// planes. Validates cross-field constraints (group/sources in range,
/// path_repair requires reconvergence, ops require governor). The result
/// is heap-allocated because SimulationConfig points into it.
std::unique_ptr<ScenarioRun> make_scenario_run(const Scenario& scenario);

}  // namespace anyqos::sim
