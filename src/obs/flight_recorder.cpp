#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <ostream>

#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::obs {

namespace {

void write(std::ostream& out, const std::string& text) {
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

}  // namespace

void append_note_detail(std::string& out, std::span<const NoteField> fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const NoteField& field = fields[i];
    if (i > 0) {
      out += ' ';
    }
    out += field.label;
    out += '=';
    switch (field.format) {
      case NoteField::Format::kInteger:
        util::append_decimal(out, field.integer);
        break;
      case NoteField::Format::kNode:
        if (field.integer == net::kInvalidNode) {
          out += '-';
        } else {
          util::append_decimal(out, field.integer);
        }
        break;
      case NoteField::Format::kRounded:
        out += util::format_fixed(field.real, 0);
        break;
    }
  }
}

FlightRecorder::FlightRecorder(FlightRecorderOptions options) : options_(options) {
  util::require(options_.depth > 0, "flight recorder depth must be positive");
}

void FlightRecorder::RingSink::on_attempt(const AttemptSpan& span) {
  owner_->claim(Slot::Kind::kAttempt).attempt = span;
  if (owner_->forward_ != nullptr) {
    owner_->forward_->on_attempt(span);
  }
}

void FlightRecorder::RingSink::on_decision(const DecisionSpan& span) {
  owner_->claim(Slot::Kind::kDecision).decision = span;
  if (owner_->forward_ != nullptr) {
    owner_->forward_->on_decision(span);
  }
}

void FlightRecorder::note(double time, std::string_view kind, std::string_view detail) {
  Slot& slot = claim(Slot::Kind::kNote);
  slot.note_time = time;
  slot.note_kind.assign(kind);
  slot.note_text.assign(detail);
  slot.note_field_count = 0;
}

void FlightRecorder::note(double time, std::string_view kind,
                          std::span<const NoteField> fields) {
  util::require(fields.size() <= kMaxNoteFields, "too many fields for one flight note");
  Slot& slot = claim(Slot::Kind::kNote);
  slot.note_time = time;
  slot.note_kind.assign(kind);
  slot.note_text.clear();
  std::copy(fields.begin(), fields.end(), slot.note_fields.begin());
  slot.note_field_count = fields.size();
}

FlightRecorder::Slot& FlightRecorder::claim(Slot::Kind kind) {
  if (next_ == slots_.size()) {
    slots_.emplace_back();
  }
  Slot& slot = slots_[next_];
  slot.kind = kind;
  slot.rendered = false;
  next_ = next_ + 1 == options_.depth ? 0 : next_ + 1;
  count_ = std::min(count_ + 1, options_.depth);
  return slot;
}

std::size_t FlightRecorder::trigger(double time, std::string_view reason) {
  return trigger(time, [reason](std::string& out) { out += reason; });
}

std::size_t FlightRecorder::dump(double time) {
  ++dumps_written_;
  scratch_.assign("{\"flight\":\"snapshot\",\"reason\":\"");
  util::append_json_escaped(scratch_, reason_);
  scratch_ += "\",\"t\":";
  util::append_json_number(scratch_, time);
  scratch_ += ",\"seq\":";
  util::append_decimal(scratch_, dumps_written_);
  scratch_ += ",\"entries\":";
  util::append_decimal(scratch_, count_);
  scratch_ += "}\n";
  write(*out_, scratch_);
  const std::size_t oldest = (next_ + options_.depth - count_) % options_.depth;
  for (std::size_t i = 0; i < count_; ++i) {
    Slot& slot = slots_[(oldest + i) % options_.depth];
    if (!slot.rendered) {
      render(slot);
    }
    write(*out_, slot.line);
  }
  return count_;
}

void FlightRecorder::render(Slot& slot) {
  slot.line.clear();
  switch (slot.kind) {
    case Slot::Kind::kAttempt:
      append_jsonl(slot.line, slot.attempt);
      break;
    case Slot::Kind::kDecision:
      append_jsonl(slot.line, slot.decision);
      break;
    case Slot::Kind::kNote:
      scratch_.assign(slot.note_text);
      append_note_detail(scratch_, std::span(slot.note_fields.data(), slot.note_field_count));
      slot.line += "{\"flight\":\"event\",\"t\":";
      util::append_json_number(slot.line, slot.note_time);
      slot.line += ",\"kind\":\"";
      util::append_json_escaped(slot.line, slot.note_kind);
      slot.line += "\",\"detail\":\"";
      util::append_json_escaped(slot.line, scratch_);
      slot.line += "\"}\n";
      break;
  }
  slot.rendered = true;
  ++lines_rendered_;
}

void FlightRecorder::clear() {
  next_ = 0;
  count_ = 0;
}

}  // namespace anyqos::obs
