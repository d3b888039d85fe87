// Fault-triggered flight recorder (observability layer 5).
//
// A bounded ring buffer of the most recent decision spans and annotated
// model events. Nothing is written while the run is healthy; when a trigger
// fires — the InvariantAuditor raises a violation, a link outage takes a
// flow down, a churn event kills a group member — the recorder dumps the
// ring as a JSONL snapshot: the bounded causal history that led up to the
// fault, black-box style. This turns a chaos-matrix pass/fail verdict into
// an explainable sequence of the last N decisions.
//
// The recorder plugs into the existing tracing plane rather than adding a
// second collection path: span_sink() is a SpanSink the DecisionTracer
// writes into (optionally teeing to a downstream sink such as a JSONL
// file), and note() accepts the flow/link/member events the simulation
// already assembles for its trace stream.
//
// Cost discipline: like the no-sink span path, a recorder that is not
// threaded into the simulation costs nothing — every producer checks its
// config pointer first. An attached recorder is always on, so it keeps raw
// fields and formats only what it dumps:
//   - ring slots are reused: a push copies the span or the note's raw
//     fields into storage the slot already owns;
//   - each slot renders its JSONL line once, at the first snapshot that
//     includes it; later overlapping snapshots reuse the line, and
//     overwriting the slot invalidates it;
//   - snapshots are bounded twice: the ring holds at most `depth` entries
//     and at most `max_dumps` snapshots are written per run. A later
//     trigger only counts (so the tally stays honest); it does not even
//     build its reason text.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/span.h"

namespace anyqos::obs {

/// Tuning knobs for the recorder.
struct FlightRecorderOptions {
  /// Ring capacity in entries (spans + events); must be positive.
  std::size_t depth = 256;
  /// Snapshots written per recorder lifetime; further triggers only count.
  std::size_t max_dumps = 16;
};

/// One `label=value` pair of a note's detail, kept raw until a snapshot
/// renders it.
struct NoteField {
  enum class Format : std::uint8_t {
    kInteger,  ///< decimal
    kNode,     ///< decimal, or "-" for net::kInvalidNode
    kRounded,  ///< to the nearest integer, as printf "%.0f" writes it
  };

  /// Plain identifier text with static storage duration (a string literal).
  const char* label = "";
  Format format = Format::kInteger;
  std::uint64_t integer = 0;  ///< kInteger, kNode
  double real = 0.0;          ///< kRounded

  static constexpr NoteField number(const char* label, std::uint64_t value) {
    return {label, Format::kInteger, value, 0.0};
  }
  static constexpr NoteField node(const char* label, net::NodeId value) {
    return {label, Format::kNode, value, 0.0};
  }
  static constexpr NoteField rounded(const char* label, double value) {
    return {label, Format::kRounded, 0, value};
  }
};

/// Appends `fields` as space-separated `label=value` pairs: the detail text
/// of a field note, and the tail of a trigger reason that repeats one.
void append_note_detail(std::string& out, std::span<const NoteField> fields);

/// Bounded black-box recorder; see the file comment for the contract.
class FlightRecorder {
 public:
  /// Most fields one note carries.
  static constexpr std::size_t kMaxNoteFields = 6;

  explicit FlightRecorder(FlightRecorderOptions options = {});

  /// The sink to attach a DecisionTracer to: every span lands in the ring
  /// and is forwarded to the downstream sink (when one is set). The
  /// returned reference is valid for the recorder's lifetime.
  [[nodiscard]] SpanSink& span_sink() { return sink_; }
  /// Tees every span this recorder receives on to `sink` (nullptr
  /// detaches), so a run can keep a full spans-out artifact *and* the
  /// bounded flight ring from one tracer.
  void set_forward(SpanSink* sink) { forward_ = sink; }

  /// Appends one model event with a free-text detail to the ring.
  void note(double time, std::string_view kind, std::string_view detail);
  /// Appends one model event whose detail is append_note_detail(fields);
  /// nothing is formatted unless a snapshot includes it.
  void note(double time, std::string_view kind, std::span<const NoteField> fields);

  /// Snapshot destination (nullptr detaches: triggers only count). `out`
  /// must outlive the recorder or be detached first.
  void set_output(std::ostream* out) { out_ = out; }

  /// Fires one trigger: writes the ring (oldest entry first) as a JSONL
  /// snapshot to the attached output — a header object carrying `reason`
  /// and the trigger time, then one line per entry — unless no output is
  /// attached or max_dumps is exhausted. Returns the entries dumped (0 when
  /// the snapshot was suppressed). The ring is NOT cleared: overlapping
  /// triggers each see the full causal window.
  std::size_t trigger(double time, std::string_view reason);
  /// As above, with the reason appended by `write_reason(std::string&)`,
  /// which runs only when the snapshot is written.
  template <typename WriteReason>
    requires std::invocable<WriteReason&, std::string&>
  std::size_t trigger(double time, WriteReason&& write_reason) {
    ++triggers_;
    if (out_ == nullptr || dumps_written_ >= options_.max_dumps) {
      return 0;
    }
    reason_.clear();
    write_reason(reason_);
    return dump(time);
  }

  [[nodiscard]] std::size_t entries() const { return count_; }
  [[nodiscard]] std::uint64_t triggers() const { return triggers_; }
  [[nodiscard]] std::uint64_t dumps_written() const { return dumps_written_; }
  /// Entry lines formatted so far: each entry is rendered at most once,
  /// however many snapshots include it.
  [[nodiscard]] std::uint64_t lines_rendered() const { return lines_rendered_; }
  [[nodiscard]] const FlightRecorderOptions& options() const { return options_; }

  /// Drops every buffered entry (counters are kept).
  void clear();

 private:
  /// One ring entry. Only the payload `kind` names is live; the others keep
  /// their storage for the slot's next use.
  struct Slot {
    enum class Kind : std::uint8_t { kAttempt, kDecision, kNote };
    Kind kind = Kind::kNote;
    AttemptSpan attempt;
    DecisionSpan decision;
    double note_time = 0.0;
    std::string note_kind;
    std::string note_text;  // free-text detail; empty for a field note
    std::array<NoteField, kMaxNoteFields> note_fields{};
    std::size_t note_field_count = 0;
    std::string line;       // the entry's JSONL line, valid iff `rendered`
    bool rendered = false;
  };

  class RingSink final : public SpanSink {
   public:
    explicit RingSink(FlightRecorder& owner) : owner_(&owner) {}
    void on_attempt(const AttemptSpan& span) override;
    void on_decision(const DecisionSpan& span) override;

   private:
    FlightRecorder* owner_;
  };

  /// The slot the next entry overwrites, marked unrendered, as `kind`.
  Slot& claim(Slot::Kind kind);
  /// Writes one snapshot headed by reason_; the caller checked the cap.
  std::size_t dump(double time);
  void render(Slot& slot);

  FlightRecorderOptions options_;
  RingSink sink_{*this};
  SpanSink* forward_ = nullptr;
  std::ostream* out_ = nullptr;
  std::vector<Slot> slots_;  // grows to depth, then reused circularly
  std::size_t next_ = 0;     // slot the next entry goes to
  std::size_t count_ = 0;    // live entries, oldest at next_ - count_
  std::string reason_;       // the pending snapshot's reason
  std::string scratch_;      // snapshot header and note detail text
  std::uint64_t triggers_ = 0;
  std::uint64_t dumps_written_ = 0;
  std::uint64_t lines_rendered_ = 0;
};

}  // namespace anyqos::obs
