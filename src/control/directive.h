// Typed runtime-control directives for the live ops plane.
//
// The ops server's POST /control/<knob> handler never mutates simulation
// state from the HTTP thread. It parses the knob name, validates the value
// (both pure functions here), and posts a ControlDirective into a
// DirectiveMailbox. sim::Simulation drains that mailbox on the DES thread
// at ops-poll boundaries and applies each directive through
// control::OverloadGovernor::apply_directive, appending the applied
// directive to an ops JSONL log stamped with the DES time of application.
//
// That log is the replay contract (DESIGN.md §13): load_ops_log() turns it
// back into TimedDirectives which a serverless re-run injects at the same
// poll boundaries, reproducing the steered run byte-identically — the
// determinism contract (§12) survives live steering because wall-clock
// arrival order is erased at the mailbox and only virtual application time
// is recorded.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace anyqos::obs {
struct ControlOutcome;
}  // namespace anyqos::obs

namespace anyqos::control {

/// The governor knobs addressable at runtime; each maps 1:1 to a
/// POST /control/<name> endpoint (names from to_string below).
enum class Knob : std::uint8_t {
  kRetrialCeiling,    ///< operator ceiling on the adaptive retrial bound
  kRetrialFloor,      ///< floor the AIMD decrease clamps to
  kShedBudget,        ///< PATH-message budget per second (0 disables)
  kShedBurst,         ///< shed bucket depth in messages (0 derives 2x budget)
  kBreakerThreshold,  ///< consecutive failures that trip a member breaker
  kBreakerCooldown,   ///< seconds a tripped breaker stays Open
};

/// The knob's wire name ("retrial-ceiling", "shed-budget", ...).
std::string to_string(Knob knob);
/// Inverse of to_string; nullopt for an unknown name (HTTP 404).
std::optional<Knob> parse_knob(std::string_view name);

/// One requested knob change. The governor may clamp the value when
/// applying it; the ops log records both requested and applied values.
struct ControlDirective {
  Knob knob = Knob::kRetrialCeiling;
  double value = 0.0;
};

/// Validates a directive without consulting governor state: finiteness and
/// per-knob domain (integer >= 1 for the retrial bounds and breaker
/// threshold, >= 0 for the shed knobs, > 0 for the cooldown). Returns an
/// error message (HTTP 422) or nullopt when the directive is applicable.
std::optional<std::string> validate_directive(Knob knob, double value);

/// A directive pinned to its DES application time — one parsed ops-log
/// entry, replayed at the same virtual time it originally applied.
struct TimedDirective {
  double apply_at = 0.0;
  ControlDirective directive;
};

/// Thread-safe FIFO between the HTTP accept thread (post) and the DES
/// thread (drain). This is the ONLY structure the two threads share on the
/// control path; everything downstream of drain() is single-threaded.
class DirectiveMailbox {
 public:
  /// Enqueues a validated directive (any thread).
  void post(const ControlDirective& directive);
  /// Takes all pending directives in post order (DES thread).
  [[nodiscard]] std::vector<ControlDirective> drain();
  /// Directives posted over the mailbox's lifetime.
  [[nodiscard]] std::uint64_t posted() const;

 private:
  mutable std::mutex mutex_;
  std::vector<ControlDirective> pending_;
  std::uint64_t posted_ = 0;
};

/// The ops server's POST /control/<knob> handler (install it with
/// obs::OpsServer::set_control_handler). Answers 404 for an unknown knob
/// and 422 for a body that is not a single number or a value outside the
/// knob's domain; otherwise posts the directive into `mailbox` and answers
/// 200 with {"queued":{"knob":"<name>","value":<body>}}. Runs on the accept
/// thread: parsing, validation and the mailbox post only.
obs::ControlOutcome post_control(DirectiveMailbox& mailbox, const std::string& knob_name,
                                 const std::string& body);

/// Appends applied directives as JSONL, one object per line:
///   {"ops":"directive","t":<DES seconds>,"knob":"<name>",
///    "value":<requested>,"applied":<after clamping>}
/// Times and values render with round-trip precision so a replayed run
/// parses back the exact doubles it logged.
class OpsLogWriter {
 public:
  /// `out` must outlive the writer; the caller owns flushing/closing.
  explicit OpsLogWriter(std::ostream& out) : out_(&out) {}

  void record(double sim_time, const ControlDirective& directive, double applied_value);
  [[nodiscard]] std::uint64_t entries() const { return entries_; }

 private:
  std::ostream* out_;
  std::uint64_t entries_ = 0;
};

/// Parses an ops log back into replayable directives (ascending apply_at —
/// the writer only ever appends at non-decreasing DES times, and replay
/// relies on that order). Throws on malformed lines or out-of-order times.
std::vector<TimedDirective> load_ops_log(std::istream& in);

}  // namespace anyqos::control
