#include "harness/workloads.h"

#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "harness/timing.h"
#include "harness/tracing.h"
#include "src/audit/auditor.h"
#include "src/audit/chaos_oracle.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/span.h"
#include "src/sim/experiment.h"
#include "src/sim/scenario.h"

namespace perfbench {
namespace {

using namespace anyqos;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  // splitmix64 over the pair: distinct (seed, cell) give unrelated seeds.
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) & 0xFFFFFFFFFFFFULL;  // 48 bits: exact as a JSON number
}

// Sizing. Simulation jobs drain to quiescence after their window so every
// job ends with an empty ledger (the leak check); windows start empty, so
// every request a job runs is in its statistics. paper_sweep's 500 s window
// (the flow population reaches 1 - e^(-500/180) = 94 % of its steady size)
// keeps each job at 10-40 ms: on a shared host the timings take each job's
// fastest pass, and only short jobs are reliably timed in an uncontended
// stretch (README.md, "Noise").
constexpr double kPaperMeasureS = 500.0;
constexpr double kGridMeasureS = 1'000.0;
constexpr double kChaosMeasureS = 100.0;
constexpr std::size_t kDrainMaxEvents = 10'000'000;
constexpr double kDrainMaxSimS = 100'000.0;
constexpr const char* kGridSpec = "grid:24x24";
constexpr std::size_t kGridSide = 24;

/// Figure 6's systems: SP with R = 1, the DAC systems with R = `max_tries`,
/// and GDI.
void configure_system(sim::SimulationConfig& config, System system, std::size_t max_tries) {
  config.use_gdi = system == System::kGdi;
  config.algorithm = selection_algorithm(system);
  config.max_tries = system == System::kSp ? 1 : max_tries;
}

sim::ExperimentModel experiment_model(const std::string& topology) {
  if (topology == "mci") {
    return sim::paper_model();
  }
  if (topology != kGridSpec) {
    throw std::invalid_argument("no experiment model for topology '" + topology + "'");
  }
  // grid_scale: K = 9 members at rows and columns {2, 12, 22}; sources at
  // the odd routers, which never coincide with a member on an even-width grid.
  sim::ExperimentModel model;
  model.topology = sim::build_scenario_topology(topology);
  model.group_members.clear();
  for (const std::size_t r : {2U, 12U, 22U}) {
    for (const std::size_t c : {2U, 12U, 22U}) {
      model.group_members.push_back(static_cast<net::NodeId>(r * kGridSide + c));
    }
  }
  for (net::NodeId id = 1; id < model.topology.router_count(); id += 2) {
    model.sources.push_back(id);
  }
  return model;
}

void note_result(JobOutcome& out, const sim::SimulationResult& result) {
  out.requests = result.offered + result.shed;
  out.reconvergences = result.reconvergences;
  out.retransmits = result.resilience.retransmits;
  out.orphans_reclaimed = result.resilience.orphans_reclaimed;
}

JobStats stats_of(const sim::SimulationResult& result) {
  JobStats stats;
  stats.offered = result.offered;
  stats.admitted = result.admitted;
  stats.shed = result.shed;
  for (std::size_t k = 0; k < signaling::kMessageKindCount; ++k) {
    stats.messages[k] = result.messages.by_kind(static_cast<signaling::MessageKind>(k));
  }
  stats.per_destination = result.per_destination_admissions;
  return stats;
}

/// Conservation: every offered request was decided exactly once, and the
/// admissions split over the members adds back up to the admitted count.
std::string conservation_error(const sim::SimulationResult& result) {
  const std::uint64_t pinned = std::accumulate(result.per_destination_admissions.begin(),
                                               result.per_destination_admissions.end(),
                                               std::uint64_t{0});
  if (result.attempts_histogram.total() != result.offered) {
    return "conservation: decisions != offered";
  }
  if (result.admitted > result.offered) {
    return "conservation: admitted > offered";
  }
  if (pinned != result.admitted) {
    return "conservation: per-destination admissions != admitted";
  }
  return "";
}

std::string scenario_cell(std::uint64_t seed, std::size_t cell) {
  // Axes, fastest-varying first: loss, churn, link faults, router crashes,
  // governor, cell seed. The first 48 cells cover every axis combination.
  const sim::ExperimentModel model = sim::paper_model();
  constexpr double kLoss[] = {0.0, 0.05, 0.2};
  std::size_t rest = cell;
  const double loss = kLoss[rest % 3];
  rest /= 3;
  const bool churn = rest % 2 == 1;
  rest /= 2;
  const bool link_faults = rest % 2 == 1;
  rest /= 2;
  const bool crashes = rest % 2 == 1;
  rest /= 2;
  const bool governor = rest % 2 == 1;

  sim::Scenario scenario;
  scenario.name = "perfbench-cell-" + std::to_string(cell);
  scenario.topology = "mci";
  scenario.seed = seed;
  scenario.lambda = 35.0;
  scenario.mean_holding_s = model.mean_holding_s;
  scenario.flow_bandwidth_bps = model.flow_bandwidth_bps;
  scenario.sources = model.sources;
  scenario.group = model.group_members;
  scenario.anycast_share = model.anycast_share;
  scenario.algorithm = cell % 2 == 0 ? "WD/D+B" : "WD/D+H";
  scenario.max_tries = 2;
  scenario.warmup_s = 0.0;
  scenario.measure_s = kChaosMeasureS;
  scenario.drain_to_quiescence = true;
  scenario.drain_max_events = 2'000'000;
  scenario.drain_max_sim_s = 10'000.0;  // exp(180 s) holding: a 2,000 s cap trips on long flows
  scenario.resilience.emplace();
  scenario.resilience->loss_probability = loss;
  scenario.resilience->hop_delay_s = 0.0005;
  if (churn) {
    scenario.axes.churn_rate = 0.002;
  }
  if (link_faults) {
    scenario.axes.link_rate = 2e-4;
  }
  if (crashes) {
    scenario.axes.node_rate = 1.0 / 2'000.0;
    scenario.reconvergence.emplace();
    scenario.reconvergence->policy = "fixed";
    scenario.reconvergence->param_s = 1.0;
    scenario.path_repair = true;
  }
  if (governor) {
    scenario.governor.emplace();
    scenario.governor->min_tries = 1;
    scenario.governor->breaker_cooldown_s = 30.0;
  }
  return sim::save_scenario(scenario);
}

// 48 axis combinations twice, then the first four a third time: the fewest
// cells that keep job_ms_p90 over at least 100 jobs, so each cell is timed
// in as many passes as a run allows.
constexpr std::size_t kChaosCells = 100;

struct StackRun {
  sim::SimulationResult result;
  double lower_s = 0.0;  ///< make_scenario_run
  double setup_s = 0.0;  ///< lowering, attachments, and construction
  double run_s = 0.0;
};

/// The chaos oracle's attachment stack (throwing auditor, decision tracer
/// feeding a flight recorder), rebuilt from public parts so the traced run
/// can hook the kernel and price each attachment by leaving it out. Mirrors
/// audit::run_chaos_oracle's wiring and defaults; the traced run checks
/// that its statistics equal the oracle's for the same cell.
StackRun run_chaos_stack(const sim::Scenario& scenario, bool with_auditor, bool with_obs,
                         Tracer* tracer, System system) {
  const audit::ChaosOracleOptions defaults;
  const Clock::time_point start = Clock::now();
  // Declared first so they are destroyed last: the auditor detaches from
  // the simulation's ledger in its destructor (the oracle's order).
  const std::unique_ptr<sim::ScenarioRun> run = sim::make_scenario_run(scenario);
  const double lower_s = seconds_since(start);
  std::unique_ptr<sim::Simulation> simulation;
  obs::DecisionTracer decisions;
  std::ostringstream flight_buffer;
  obs::FlightRecorderOptions flight_options;
  flight_options.depth = defaults.flight_depth;
  obs::FlightRecorder recorder(flight_options);
  recorder.set_output(&flight_buffer);
  decisions.set_sink(&recorder.span_sink());
  audit::AuditorOptions audit_options;
  audit_options.throw_on_violation = true;
  audit_options.checkpoint_interval_s = defaults.checkpoint_interval_s;
  audit::InvariantAuditor auditor(audit_options);

  if (run->config.drain_max_events == 0) {
    run->config.drain_max_events = defaults.fallback_drain_max_events;
  }
  if (run->config.drain_max_sim_s == 0.0) {
    run->config.drain_max_sim_s = defaults.fallback_drain_max_sim_s;
  }
  if (with_obs) {
    run->config.tracer = &decisions;
    run->config.flight_recorder = &recorder;
  }
  simulation = std::make_unique<sim::Simulation>(run->topology, run->config);
  if (with_auditor) {
    auditor.attach(*simulation);
    if (with_obs) {
      auditor.set_violation_hook([&recorder](const audit::Violation& violation) {
        recorder.trigger(violation.sim_time, "audit " + audit::to_string(violation.check));
      });
    }
  }
  StackRun out;
  out.lower_s = lower_s;
  out.setup_s = seconds_since(start);
  if (tracer != nullptr) {
    tracer->begin_job(simulation->simulator(), system, with_auditor ? &auditor : nullptr);
    simulation->set_admission_observer(tracer);
  }
  const Clock::time_point run_start = Clock::now();
  out.result = simulation->run();
  out.run_s = seconds_since(run_start);
  if (tracer != nullptr) {
    tracer->end_job(simulation->simulator());
  }
  return out;
}

JobOutcome run_sim_job(const JobSpec& job, Tracer* tracer) {
  JobOutcome out;
  const Clock::time_point start = Clock::now();
  {
    const sim::ExperimentModel model = experiment_model(job.topology);
    sim::SimulationConfig config = model.base_config(job.lambda);
    configure_system(config, job.system, job.max_tries);
    config.warmup_s = 0.0;
    config.measure_s = job.measure_s;
    config.seed = job.seed;
    config.drain_to_quiescence = true;
    config.drain_max_events = kDrainMaxEvents;
    config.drain_max_sim_s = kDrainMaxSimS;
    sim::Simulation simulation(model.topology, config);
    out.setup_s = seconds_since(start);
    if (tracer != nullptr) {
      tracer->begin_job(simulation.simulator(), job.system, nullptr);
      if (job.system != System::kGdi) {
        simulation.set_admission_observer(tracer);
      }
    }
    const sim::SimulationResult result = simulation.run();
    if (tracer != nullptr) {
      tracer->end_job(simulation.simulator());
    }
    out.stats = stats_of(result);
    note_result(out, result);
    if (simulation.drain_watchdog().tripped) {
      out.error = "hang: " + simulation.drain_watchdog().reason;
    } else if (simulation.ledger().total_reserved() > 0.0) {
      out.error = "leak: reserved bandwidth survived the drain";
    } else if (simulation.active_flows() > 0) {
      out.error = "leak: flows survived the drain";
    } else {
      out.error = conservation_error(result);
    }
  }
  out.wall_s = seconds_since(start);  // teardown included, as in the oracle
  return out;
}

JobOutcome run_chaos_job(const JobSpec& job, Tracer* tracer) {
  JobOutcome out;
  const Clock::time_point start = Clock::now();
  const sim::Scenario scenario = sim::load_scenario(job.scenario_text);
  const double load_s = seconds_since(start);
  if (tracer != nullptr) {
    const StackRun run = run_chaos_stack(scenario, true, true, tracer, job.system);
    out.wall_s = seconds_since(start);
    out.setup_s = load_s + run.setup_s;
    out.scenario_load_s = load_s + run.lower_s;
    out.stats = stats_of(run.result);
    note_result(out, run.result);
    out.error = conservation_error(run.result);
    return out;
  }
  const audit::ChaosOracleOutcome outcome = audit::run_chaos_oracle(scenario);
  out.wall_s = seconds_since(start);
  // The oracle builds its Simulation internally, so the construction share
  // of the job is priced on a twin built right after, outside the job's
  // wall time: same scenario, same lowering, same constructor.
  const Clock::time_point probe_start = Clock::now();
  {
    const std::unique_ptr<sim::ScenarioRun> run = sim::make_scenario_run(scenario);
    const sim::Simulation twin(run->topology, run->config);
  }
  out.setup_s = load_s + seconds_since(probe_start);
  if (!outcome.clean()) {
    out.error = "oracle: " + outcome.violation_class;
    return out;
  }
  out.stats = stats_of(outcome.result);
  note_result(out, outcome.result);
  out.error = conservation_error(outcome.result);
  return out;
}

}  // namespace

const char* system_tag(System system) {
  switch (system) {
    case System::kSp:
      return "sp";
    case System::kEd:
      return "ed";
    case System::kWdh:
      return "wdh";
    case System::kWdb:
      return "wdb";
    case System::kGdi:
      return "gdi";
  }
  return "?";
}

core::SelectionAlgorithm selection_algorithm(System system) {
  switch (system) {
    case System::kSp:
      return core::SelectionAlgorithm::kShortestPath;
    case System::kWdh:
      return core::SelectionAlgorithm::kDistanceHistory;
    case System::kWdb:
      return core::SelectionAlgorithm::kDistanceBandwidth;
    case System::kEd:
    case System::kGdi:
      break;
  }
  return core::SelectionAlgorithm::kEvenDistribution;
}

std::vector<JobSpec> make_pass(const std::string& name, std::uint64_t seed) {
  std::vector<JobSpec> jobs;
  const std::uint64_t job_seed = mix(seed, 0);
  if (name == "paper_sweep") {
    // Figure 6's five systems at two loads, all at one seed (common random
    // numbers, as the figure benches use).
    for (const double lambda : {20.0, 35.0}) {
      for (const System system : kAllSystems) {
        JobSpec job;
        job.name = std::string(system_tag(system)) + "@" + std::to_string(int(lambda));
        job.system = system;
        job.seed = job_seed;
        job.topology = "mci";
        job.lambda = lambda;
        job.measure_s = kPaperMeasureS;
        jobs.push_back(std::move(job));
      }
    }
  } else if (name == "grid_scale") {
    for (const System system : {System::kWdb, System::kWdh}) {
      JobSpec job;
      job.name = std::string(system_tag(system)) + "@100";
      job.system = system;
      job.seed = job_seed;
      job.topology = kGridSpec;
      job.lambda = 100.0;
      job.measure_s = kGridMeasureS;
      job.max_tries = 3;
      jobs.push_back(std::move(job));
    }
  } else if (name == "chaos_matrix") {
    for (std::size_t cell = 0; cell < kChaosCells; ++cell) {
      JobSpec job;
      job.name = "cell-" + std::to_string(cell);
      job.system = cell % 2 == 0 ? System::kWdb : System::kWdh;
      job.seed = mix(job_seed, cell);
      job.scenario_text = scenario_cell(job.seed, cell);
      jobs.push_back(std::move(job));
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return jobs;
}

JobOutcome run_job(const JobSpec& job, Tracer* tracer) {
  try {
    JobOutcome out = job.chaos() ? run_chaos_job(job, tracer) : run_sim_job(job, tracer);
    out.ok = out.error.empty();
    return out;
  } catch (const std::exception& error) {
    JobOutcome out;
    out.ok = false;
    out.error = std::string("exception: ") + error.what();
    return out;
  }
}

double chaos_stack_seconds(const JobSpec& job, bool with_auditor, bool with_obs) {
  const sim::Scenario scenario = sim::load_scenario(job.scenario_text);
  const StackRun run = run_chaos_stack(scenario, with_auditor, with_obs, nullptr, job.system);
  return run.setup_s + run.run_s;
}

JobModel job_model(const JobSpec& job) {
  if (job.chaos()) {
    const sim::Scenario scenario = sim::load_scenario(job.scenario_text);
    return {sim::build_scenario_topology(scenario.topology), scenario.group, scenario.sources};
  }
  sim::ExperimentModel model = experiment_model(job.topology);
  return {std::move(model.topology), model.group_members, model.sources};
}

}  // namespace perfbench
