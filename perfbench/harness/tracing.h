// The traced run's instrument: one object attached from outside through the
// library's two public hooks — des::Simulator::set_kernel_sink (every
// schedule / fire / cancel) and Simulation::set_admission_observer (the
// Figure 1 loop). It timestamps with the host clock, so it only
// ever runs in the separate traced run, never in the end-to-end one.
//
// Spans, nested by cause: job -> event dispatch (category) -> admit
// (request ordinal within the job) -> attempt (member index). A dispatch
// span runs from one on_fired call to the next, so it covers the handler
// plus the kernel's pop of the following event. Spans are kept in memory up
// to a fixed capacity and written out when the run ends; the per-category
// totals behind the metrics are exact over every job regardless.
//
// Timestamps are raw time-stamp-counter ticks on x86-64 (a steady_clock
// read costs ~3x more in a VM, and five reads per request would dominate
// the overhead), converted to ns with a rate calibrated against
// steady_clock over the tracer's lifetime.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "harness/timing.h"
#include "harness/workloads.h"
#include "src/core/admission.h"
#include "src/des/kernel_sink.h"
#include "src/des/simulator.h"

namespace perfbench {

/// Kernel operation counts at the hooks.
struct KernelCounts {
  std::uint64_t events = 0;      ///< dispatches (Simulator::dispatched_events)
  std::uint64_t scheduled = 0;   ///< schedules seen by the sink
  std::uint64_t cancelled = 0;   ///< successful cancels
  std::uint64_t tombstones = 0;  ///< lazily-cancelled heap entries skipped
  std::uint64_t peak_pending = 0;
};

/// Self time and dispatch count of one event category under one system.
struct CategoryTotals {
  std::uint64_t dispatches = 0;
  double self_ns = 0.0;
  double admit_ns = 0.0;  ///< admit spans nested in these dispatches
};

/// Admission-loop counts and admit-span durations for one system.
struct AdmitTotals {
  std::uint64_t requests = 0;
  std::uint64_t attempts = 0;
  std::uint64_t admitted = 0;
  std::vector<double> admit_ns;  ///< capped sample, in arrival order
};

class Tracer final : public anyqos::des::KernelSink, public anyqos::core::AdmissionObserver {
 public:
  explicit Tracer(std::size_t span_capacity);

  /// Attaches to `simulator` as its kernel sink and opens a job span.
  /// `forward` (may be null) receives every admission-observer call after
  /// the tracer, so an auditor keeps its place on the observer hook.
  void begin_job(anyqos::des::Simulator& simulator, System system,
                 anyqos::core::AdmissionObserver* forward);
  /// Closes the job (call right after Simulation::run returns) and detaches.
  void end_job(anyqos::des::Simulator& simulator);
  /// Replays the last job's recorded schedule/cancel/pop stream into a bare
  /// des::EventQueue and adds the timed pass to replay_ns()/replay_ops().
  /// Call outside the job's timed region.
  void replay_queue();

  void on_scheduled(anyqos::des::EventCategory category, double now, double when) override;
  void on_fired(anyqos::des::EventCategory category, double scheduled_at, double now) override;
  void on_cancelled(anyqos::des::EventCategory category, double now) override;

  void on_request_begin(anyqos::net::NodeId source) override;
  void on_attempt(anyqos::net::NodeId source, std::size_t member_index) override;
  void on_decision(anyqos::net::NodeId source, const anyqos::core::AdmissionDecision& decision,
                   std::size_t max_attempts, std::size_t group_size) override;

  [[nodiscard]] const KernelCounts& counts() const { return counts_; }
  /// Totals for (system, category name); zeros when never dispatched.
  [[nodiscard]] CategoryTotals category(System system, const std::string& name) const;
  /// Sum of self time over every category and system.
  [[nodiscard]] double total_self_ns() const;
  /// Counts and admit-span durations (ns) of one system.
  [[nodiscard]] AdmitTotals admits(System system) const;
  /// Bare-queue replay of the recorded schedule/cancel/pop stream.
  [[nodiscard]] std::uint64_t replay_ops() const { return replay_ops_; }
  [[nodiscard]] double replay_ns() const { return replay_ns_; }

  /// Writes the kept spans as JSON lines (one object per span).
  void write_spans(std::ostream& out) const;

 private:
  enum class SpanKind : std::uint8_t { kJob, kDispatch, kAdmit, kAttempt };
  struct Span {
    std::int64_t start;  ///< ticks
    std::int64_t end;
    std::uint64_t ref;    ///< job ordinal, request ordinal, or attempt number
    std::int32_t parent;  ///< index into spans_, -1 for a job
    std::uint16_t label;  ///< system, category, or member index
    SpanKind kind;
  };
  struct QueueOp {
    double time;
    std::uint16_t category;
    std::uint8_t kind;  ///< 0 schedule, 1 pop, 2 cancel
  };

  [[nodiscard]] static std::int64_t now_ticks();
  /// ns per tick, calibrated from construction until now.
  [[nodiscard]] double ns_per_tick() const;
  std::int32_t open_span(SpanKind kind, std::uint16_t label, std::uint64_t ref,
                         std::int32_t parent, std::int64_t start);
  void close_span(std::int32_t index, std::int64_t end);
  std::uint16_t global_category(anyqos::des::EventCategory category);
  void close_dispatch(std::int64_t end);

  Clock::time_point epoch_;
  std::int64_t epoch_ticks_;
  std::size_t span_capacity_;
  std::vector<Span> spans_;
  std::uint64_t spans_dropped_ = 0;

  // Current job.
  const anyqos::des::Simulator* simulator_ = nullptr;
  anyqos::core::AdmissionObserver* forward_ = nullptr;
  System system_ = System::kEd;
  std::vector<std::uint16_t> local_to_global_;
  std::int32_t job_span_ = -1;
  std::uint64_t jobs_ = 0;
  bool dispatch_open_ = false;
  std::uint16_t dispatch_category_ = 0;
  std::int64_t dispatch_start_ = 0;
  std::int64_t dispatch_admit_ = 0;
  std::int32_t dispatch_span_ = -1;
  std::uint64_t dispatch_seq_ = 0;
  std::int64_t admit_start_ = 0;
  std::int32_t admit_span_ = -1;
  std::uint64_t request_seq_ = 0;
  std::int32_t attempt_span_ = -1;
  std::uint64_t attempt_seq_ = 0;
  std::vector<QueueOp> ops_;

  // Totals over every job.
  std::vector<std::string> category_names_;
  struct Ticks {  // CategoryTotals before conversion
    std::uint64_t dispatches = 0;
    std::int64_t self = 0;
    std::int64_t admit = 0;
  };
  struct AdmitTicks {  // AdmitTotals before conversion
    std::uint64_t requests = 0;
    std::uint64_t attempts = 0;
    std::uint64_t admitted = 0;
    std::vector<std::int64_t> admit;
  };
  std::array<std::vector<Ticks>, kAllSystems.size()> categories_;
  std::array<AdmitTicks, kAllSystems.size()> admits_;
  KernelCounts counts_;
  std::uint64_t replay_ops_ = 0;
  double replay_ns_ = 0.0;
};

}  // namespace perfbench
