// The chaos oracle: run one Scenario through every correctness gate the
// repo has and return a single classified verdict.
//
// Every chaossim matrix cell, chaossim --scenario and tools/chaosfuzz need
// the exact same judgement — "did this fault schedule break anything, and
// what class of breakage was it?" — so it lives here, once. The oracle runs
// the scenario under a throwing InvariantAuditor with a flight recorder
// armed, then applies the post-drain gates in a fixed severity order:
//
//   invalid:<what>      scenario failed validation/construction (not a bug)
//   audit:<check>       an invariant auditor check fired
//   exception:<what>    the model threw outside the auditor (e.g. ledger
//                       preconditions — the planted-bug class)
//   hang:<reason>       the drain watchdog tripped (no quiescence)
//   leak:<kind>         reserved bandwidth / flows / orphans / repairs
//                       survived a clean drain
//   unreconciled        hop mirror != MessageCounter (exact-count runs only)
//   breaker-open        a circuit breaker survived the drain Open
//
// The class string is the shrinker's preservation target: a shrunk scenario
// reproduces the original failure only if its class matches exactly.
#pragma once

#include <memory>
#include <sstream>
#include <string>

#include "src/audit/auditor.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/span.h"
#include "src/sim/scenario.h"
#include "src/sim/simulation.h"
#include "src/sim/trace.h"

namespace anyqos::audit {

struct ChaosOracleOptions {
  /// Auditor checkpoint period (simulated seconds).
  double checkpoint_interval_s = 50.0;
  /// Flight-recorder ring depth for the violation dump.
  std::size_t flight_depth = 256;
  /// Watchdog fallbacks applied when the scenario itself sets no cap — the
  /// oracle never runs an unbounded drain (unattended fuzzing must not
  /// hang). 0 disables the fallback.
  std::size_t fallback_drain_max_events = 10'000'000;
  double fallback_drain_max_sim_s = 10'000.0;
  /// TEST ONLY: forwarded to SimulationConfig::defeat_duplex_idempotency
  /// (the chaosfuzz planted-bug gate).
  bool defeat_duplex_idempotency = false;
  /// Optional flow-event observer (e.g. a CsvTraceSink so a failing run
  /// leaves a flowlens-able artifact). Must outlive the call.
  sim::TraceSink* trace = nullptr;
};

/// One classified run. `violation_class` empty = clean.
struct ChaosOracleOutcome {
  std::string violation_class;
  std::string detail;          ///< human diagnostic (counts, messages)
  bool ran = false;            ///< run() returned (false for invalid:/audit:/exception:)
  sim::SimulationResult result;  ///< valid when `ran`
  std::string flight_dump;     ///< buffered flight JSONL ("" when nothing dumped)
  std::string audit_log;       ///< auditor findings text ("" when clean)

  [[nodiscard]] bool clean() const { return violation_class.empty(); }
};

/// The oracle in three steps, for callers that attach observers of their
/// own (chaossim's per-cell timelines, kernel stats, ops labels, shared
/// span file):
///
///   ChaosOracle oracle(scenario, options);  // 1. lower
///   if (sim::ScenarioRun* run = oracle.run()) {
///     run->config.timeline = &timeline;     // 2. attach through the config
///   }
///   const ChaosOracleOutcome outcome = oracle.judge();  // 3. run + classify
///
/// Lowering wires the oracle's own flight recorder (decision spans land in
/// its ring) and drain watchdog into run()->config; attachments must leave
/// those in place. After judge() the finished simulation, the recorder and
/// the tracer stay readable for the oracle's lifetime.
class ChaosOracle {
 public:
  /// Lowers `scenario`; never throws (a rejected scenario judges invalid:).
  explicit ChaosOracle(const sim::Scenario& scenario, const ChaosOracleOptions& options = {});
  ChaosOracle(const ChaosOracle&) = delete;
  ChaosOracle& operator=(const ChaosOracle&) = delete;

  /// The lowered run; nullptr when lowering rejected the scenario.
  [[nodiscard]] sim::ScenarioRun* run() { return run_.get(); }
  /// Builds the simulation from run()->config, runs it and classifies the
  /// outcome. Call once. Deterministic: equal scenarios and attachments
  /// produce byte-equal outcomes.
  ChaosOracleOutcome judge();

  /// The judged simulation; nullptr when it was never built.
  [[nodiscard]] const sim::Simulation* simulation() const { return simulation_.get(); }
  [[nodiscard]] const obs::FlightRecorder& recorder() const { return recorder_; }
  [[nodiscard]] const obs::DecisionTracer& tracer() const { return tracer_; }

 private:
  std::string rejected_;  // lowering error ("" when lowered)
  bool reconciliation_checkable_ = false;
  std::unique_ptr<sim::ScenarioRun> run_;
  std::unique_ptr<sim::Simulation> simulation_;
  obs::DecisionTracer tracer_;
  std::ostringstream flight_buffer_;
  obs::FlightRecorder recorder_;
  InvariantAuditor auditor_;
};

/// One-call form: lowers, runs and classifies `scenario` with nothing
/// attached beyond the oracle's own stack.
ChaosOracleOutcome run_chaos_oracle(const sim::Scenario& scenario,
                                    const ChaosOracleOptions& options = {});

}  // namespace anyqos::audit
