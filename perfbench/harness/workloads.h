// The benchmark's three workloads and the job runner.
//
// A job is one sim::Simulation run or one chaos-oracle cell. A workload is a
// fixed list of job slots (a "pass") drawn from the run seed; the runner
// repeats whole passes, one job at a time, so every run measures the same
// job mix and every slot is timed several times on identical inputs.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/selector.h"
#include "src/net/topology.h"
#include "src/signaling/message.h"
#include "src/sim/simulation.h"

namespace perfbench {

class Tracer;

/// The DAC systems and baselines a job can run (Figure 6's five).
enum class System : std::uint8_t { kSp, kEd, kWdh, kWdb, kGdi };
inline constexpr std::array<System, 5> kAllSystems = {System::kSp, System::kEd, System::kWdh,
                                                      System::kWdb, System::kGdi};
/// Metric-name suffix: "sp", "ed", "wdh", "wdb", "gdi".
const char* system_tag(System system);
/// The destination-selection algorithm of a DAC system (GDI has none).
anyqos::core::SelectionAlgorithm selection_algorithm(System system);

/// The simulated statistics a job is checked on: the reference file pins
/// these at the default seed, and a traced run must reproduce them exactly.
struct JobStats {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::array<std::uint64_t, anyqos::signaling::kMessageKindCount> messages{};
  std::vector<std::uint64_t> per_destination;

  bool operator==(const JobStats&) const = default;
};

/// One job slot of a pass.
struct JobSpec {
  std::string name;  ///< stable within a workload, e.g. "wdb@35" or "cell-017"
  System system = System::kEd;
  std::uint64_t seed = 0;
  /// Simulation jobs: the model ("mci" or a build_scenario_topology spec),
  /// the arrival rate, and the measured window.
  std::string topology;
  double lambda = 0.0;
  double measure_s = 0.0;
  std::size_t max_tries = 2;  ///< R of the DAC systems (SP always tries one)
  /// Chaos jobs: the anyqos.scenario/1 document (non-empty marks a chaos job).
  std::string scenario_text;

  [[nodiscard]] bool chaos() const { return !scenario_text.empty(); }
};

struct JobOutcome {
  bool ok = true;
  std::string error;      ///< first failed check ("" when ok)
  JobStats stats;
  std::uint64_t requests = 0;  ///< requests run to a decision (offered + shed)
  double wall_s = 0.0;    ///< job wall time, setup included
  double setup_s = 0.0;   ///< topology, routes, scenario load, construction
  double scenario_load_s = 0.0;  ///< chaos: load_scenario + make_scenario_run
  std::uint64_t reconvergences = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t orphans_reclaimed = 0;
};

/// The job slots of one pass of workload `name` at run seed `seed`.
/// Throws std::invalid_argument for an unknown workload.
std::vector<JobSpec> make_pass(const std::string& name, std::uint64_t seed);

/// Runs one job with nothing attached (the end-to-end measurement), or with
/// `tracer` attached to the kernel and the admission loop (the traced run).
/// Never throws: a throwing job comes back with ok = false.
JobOutcome run_job(const JobSpec& job, Tracer* tracer);

/// Chaos jobs only: wall seconds of one run of the cell's oracle stack as
/// the benchmark rebuilds it, with the auditor and/or the tracer + flight
/// recorder left out. Used to price those attachments from outside.
double chaos_stack_seconds(const JobSpec& job, bool with_auditor, bool with_obs);

/// Topology, group and sources of a simulation job's model.
struct JobModel {
  anyqos::net::Topology topology;
  std::vector<anyqos::net::NodeId> members;
  std::vector<anyqos::net::NodeId> sources;
};
JobModel job_model(const JobSpec& job);

}  // namespace perfbench
