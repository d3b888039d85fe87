#include "src/audit/chaos_oracle.h"

#include "src/control/governor.h"

namespace anyqos::audit {
namespace {

/// The hop-count mirror reconciles exactly only when nothing but the
/// resilient protocol charges the MessageCounter: zero warmup (the counter
/// resets at the boundary but the mirror does not), ED selection (WD/D+B
/// probes share the counter), and the resilient plane present at all.
bool reconciliation_checkable(const sim::Scenario& scenario) {
  return scenario.warmup_s == 0.0 && scenario.algorithm == "ED" &&
         scenario.resilience.has_value();
}

obs::FlightRecorderOptions recorder_options(const ChaosOracleOptions& options) {
  obs::FlightRecorderOptions flight_options;
  flight_options.depth = options.flight_depth;
  return flight_options;
}

AuditorOptions auditor_options(const ChaosOracleOptions& options) {
  AuditorOptions audit_options;
  audit_options.throw_on_violation = true;
  audit_options.checkpoint_interval_s = options.checkpoint_interval_s;
  return audit_options;
}

}  // namespace

ChaosOracle::ChaosOracle(const sim::Scenario& scenario, const ChaosOracleOptions& options)
    : reconciliation_checkable_(reconciliation_checkable(scenario)),
      recorder_(recorder_options(options)),
      auditor_(auditor_options(options)) {
  recorder_.set_output(&flight_buffer_);
  tracer_.set_sink(&recorder_.span_sink());
  // Lowering failures are the scenario's fault (bad member index, unknown
  // knob, fault on a missing link), not the model's — classified
  // separately so the shrinker can never "minimize" a model bug into a
  // validation error.
  try {
    run_ = sim::make_scenario_run(scenario);
  } catch (const std::exception& error) {
    rejected_ = error.what();
    return;
  }
  sim::SimulationConfig& config = run_->config;
  config.defeat_duplex_idempotency = options.defeat_duplex_idempotency;
  if (config.drain_to_quiescence) {
    if (config.drain_max_events == 0) {
      config.drain_max_events = options.fallback_drain_max_events;
    }
    if (config.drain_max_sim_s == 0.0) {
      config.drain_max_sim_s = options.fallback_drain_max_sim_s;
    }
  }
  config.trace = options.trace;
  config.tracer = &tracer_;
  config.flight_recorder = &recorder_;
}

const std::string& ChaosOracle::build() {
  // A construction failure is still the scenario's fault.
  if (rejected_.empty() && simulation_ == nullptr) {
    try {
      simulation_ = std::make_unique<sim::Simulation>(run_->topology, run_->config);
      auditor_.attach(*simulation_);
    } catch (const std::exception& error) {
      simulation_.reset();
      rejected_ = error.what();
    }
  }
  return rejected_;
}

ChaosOracleOutcome ChaosOracle::judge() {
  ChaosOracleOutcome outcome;

  // Phase 1: build the simulation from the lowered (and attached) config.
  if (!build().empty()) {
    outcome.violation_class = "invalid:" + rejected_;
    outcome.detail = "scenario rejected before run";
    return outcome;
  }
  auditor_.set_violation_hook([this](const Violation& violation) {
    recorder_.trigger(violation.sim_time, "audit " + to_string(violation.check));
  });

  // Phase 2: run under the throwing auditor. An InvariantError with a
  // non-empty audit log is an audit violation; anything else the model
  // threw is its own class (the ledger's preconditions, most notably).
  try {
    outcome.result = simulation_->run();
    outcome.ran = true;
  } catch (const std::exception& error) {
    outcome.audit_log = auditor_.log().to_text();
    if (!auditor_.log().empty()) {
      outcome.violation_class =
          "audit:" + to_string(auditor_.log().entries().back().check);
    } else {
      outcome.violation_class = std::string("exception:") + error.what();
    }
    outcome.detail = error.what();
    outcome.flight_dump = flight_buffer_.str();
    return outcome;
  }

  // Phase 3: post-run gates, most severe first. The flight dump (if any
  // trigger fired mid-run) rides along either way.
  outcome.flight_dump = flight_buffer_.str();
  const sim::DrainWatchdogReport& watchdog = simulation_->drain_watchdog();
  if (watchdog.tripped) {
    outcome.violation_class = "hang:" + watchdog.reason;
    std::ostringstream detail;
    detail << "drain watchdog tripped at t=" << watchdog.sim_time_s << " with "
           << watchdog.pending_events << " pending events, " << watchdog.active_flows
           << " active flows after " << watchdog.drained_events << " drained events";
    outcome.detail = detail.str();
    return outcome;
  }
  if (run_->config.drain_to_quiescence) {
    auto leak = [&outcome](const char* kind, std::uint64_t amount) {
      outcome.violation_class = std::string("leak:") + kind;
      outcome.detail = std::string(kind) + " survived the drain (" +
                       std::to_string(amount) + ")";
    };
    auto* resilient = simulation_->resilient();
    if (simulation_->ledger().total_reserved() > 0.0) {
      leak("reserved", static_cast<std::uint64_t>(simulation_->ledger().total_reserved()));
      return outcome;
    }
    if (simulation_->active_flows() > 0) {
      leak("flows", simulation_->active_flows());
      return outcome;
    }
    if (resilient != nullptr && resilient->pending_orphans() > 0) {
      leak("orphans", resilient->pending_orphans());
      return outcome;
    }
    if (simulation_->pending_repairs() > 0) {
      leak("repairs", simulation_->pending_repairs());
      return outcome;
    }
  }
  if (reconciliation_checkable_ &&
      outcome.result.resilience.hops_counted != outcome.result.messages.total()) {
    outcome.violation_class = "unreconciled";
    outcome.detail = "hop mirror " + std::to_string(outcome.result.resilience.hops_counted) +
                     " != message counter " +
                     std::to_string(outcome.result.messages.total());
    return outcome;
  }
  if (run_->governor != nullptr && run_->governor->open_breakers() > 0) {
    outcome.violation_class = "breaker-open";
    outcome.detail = std::to_string(run_->governor->open_breakers()) +
                     " breakers still Open after the drain";
    return outcome;
  }
  return outcome;
}

ChaosOracleOutcome run_chaos_oracle(const sim::Scenario& scenario,
                                    const ChaosOracleOptions& options) {
  return ChaosOracle(scenario, options).judge();
}

}  // namespace anyqos::audit
