// Engine profiling hooks (observability layer 3).
//
// Measures how fast the DES kernel itself runs, independent of what the
// model computes: wall-clock phase timers (warm-up vs measurement vs
// whatever the caller brackets) and throughput samples taken at configurable
// simulated-time checkpoints — events/sec of wall time, pending-event queue
// depth, and active flows. The numbers seed the BENCH_* trajectory: every
// perf PR can quote events/sec before and after from the same hooks.
//
// Attachment mirrors audit::InvariantAuditor: a self-rescheduling checkpoint
// event on the kernel, installed before run(). Sampling reads existing
// kernel counters (dispatched events, queue size), so the simulation's
// virtual-time behaviour is untouched — the profiler only spends wall time.
#pragma once

#include <chrono>  // wall-clock throughput profiling; see ALLOW notes below
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "src/des/category.h"
#include "src/obs/registry.h"

namespace anyqos::des {
class Simulator;
}  // namespace anyqos::des

namespace anyqos::obs {

/// One throughput checkpoint.
struct ProfileSample {
  double sim_time_s = 0.0;            ///< virtual clock at the checkpoint
  double wall_seconds = 0.0;          ///< wall time since attach()
  std::uint64_t events_dispatched = 0;  ///< kernel lifetime dispatch count
  double events_per_second = 0.0;     ///< wall-clock rate since last sample
  std::size_t queue_depth = 0;        ///< pending events at the checkpoint
  std::size_t active_flows = 0;       ///< model population (0 if no source)
};

/// Aggregate over a profiled run.
struct ProfileSummary {
  double sim_time_s = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;           ///< dispatched since attach()
  double events_per_second = 0.0;     ///< events / wall_seconds
  double sim_seconds_per_wall_second = 0.0;
  std::size_t peak_queue_depth = 0;
  std::size_t peak_active_flows = 0;
  std::size_t checkpoints = 0;
};

/// Wall-clock phase timers plus DES throughput gauges. One instance profiles
/// one kernel run; construct fresh per simulation.
class EngineProfiler {
 public:
  /// `checkpoint_interval_s` is the simulated-seconds period of the
  /// self-rescheduling sample event attach() installs; <= 0 disables
  /// periodic samples (call sample() manually).
  explicit EngineProfiler(double checkpoint_interval_s = 100.0);

  /// Starts the wall clock, snapshots the kernel's dispatch baseline, and
  /// (when the interval is positive) installs the periodic checkpoint event.
  /// `active_flows` optionally supplies the model population per sample.
  /// `stop_rearming` — when supplied — is consulted after each checkpoint;
  /// once it returns true no further checkpoint is parked, so a
  /// drain-to-quiescence run can empty its calendar (the timeline's and the
  /// auditor's contract). Call before running the simulator; `simulator`
  /// must outlive this.
  void attach(des::Simulator& simulator, std::function<std::size_t()> active_flows = {},
              std::function<bool()> stop_rearming = {});

  /// Takes one throughput sample now (requires a prior attach()).
  void sample();

  /// RAII wall-clock timer; accumulates into the named phase on destruction.
  class PhaseScope {
   public:
    PhaseScope(PhaseScope&& other) noexcept;
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;
    PhaseScope& operator=(PhaseScope&&) = delete;
    ~PhaseScope();

   private:
    friend class EngineProfiler;
    PhaseScope(EngineProfiler* profiler, std::size_t index);
    EngineProfiler* profiler_;
    std::size_t index_;
    std::chrono::steady_clock::time_point start_;
  };

  /// Starts timing `name`; the returned scope adds its lifetime to the
  /// phase's accumulated seconds. Phases may repeat (times add up).
  [[nodiscard]] PhaseScope phase(const std::string& name);
  /// Accumulated wall seconds of `name` (0 when never timed).
  [[nodiscard]] double phase_seconds(const std::string& name) const;
  /// All phases in first-use order.
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& phases() const {
    return phases_;
  }

  [[nodiscard]] const std::vector<ProfileSample>& samples() const { return samples_; }
  /// Aggregate up to now (valid after attach()).
  [[nodiscard]] ProfileSummary summary() const;

  /// Registers the summary and phase timers as anyqos_engine_* gauges.
  void export_to(MetricsRegistry& registry) const;
  /// One JSON object: {"summary":{...},"phases":{...},"samples":[...]}.
  void write_json(std::ostream& out) const;

 private:
  void schedule_checkpoint();

  double checkpoint_interval_s_;
  des::Simulator* simulator_ = nullptr;
  des::EventCategory category_;  // "obs.profiler" kernel tag
  std::function<std::size_t()> active_flows_;
  std::function<bool()> stop_rearming_;
  std::chrono::steady_clock::time_point attach_wall_{};
  std::uint64_t baseline_events_ = 0;
  std::vector<ProfileSample> samples_;
  std::vector<std::pair<std::string, double>> phases_;
  std::size_t peak_queue_depth_ = 0;
  std::size_t peak_active_flows_ = 0;
};

}  // namespace anyqos::obs
