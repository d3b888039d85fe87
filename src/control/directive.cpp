#include "src/control/directive.h"

#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>

#include "src/obs/ops_server.h"
#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::control {

namespace {

// Round-trip rendering for log values: integers stay bare, everything else
// gets %.17g so load_ops_log parses back the exact double.
std::string render_log_number(double value) {
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    return std::to_string(static_cast<long long>(value));
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return std::string(buffer);
}

// Extracts the value of `key` from one log line of the writer's fixed
// format. Values are either quoted strings or bare numbers; both end at
// the next ',' or '}'.
std::string_view extract_field(std::string_view line, std::string_view key,
                               std::size_t line_number) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const std::size_t at = line.find(needle);
  util::require(at != std::string_view::npos,
                [&] {
                  return "ops log line " + std::to_string(line_number) + " is missing \"" +
                         std::string(key) + "\"";
                });
  std::string_view rest = line.substr(at + needle.size());
  if (!rest.empty() && rest.front() == '"') {
    rest.remove_prefix(1);
    const std::size_t end = rest.find('"');
    util::require(end != std::string_view::npos,
                  [&] {
                    return "ops log line " + std::to_string(line_number) +
                           " has an unterminated string";
                  });
    return rest.substr(0, end);
  }
  const std::size_t end = rest.find_first_of(",}");
  util::require(end != std::string_view::npos,
                [&] {
                  return "ops log line " + std::to_string(line_number) + " is truncated";
                });
  return rest.substr(0, end);
}

}  // namespace

std::string to_string(Knob knob) {
  switch (knob) {
    case Knob::kRetrialCeiling:
      return "retrial-ceiling";
    case Knob::kRetrialFloor:
      return "retrial-floor";
    case Knob::kShedBudget:
      return "shed-budget";
    case Knob::kShedBurst:
      return "shed-burst";
    case Knob::kBreakerThreshold:
      return "breaker-threshold";
    case Knob::kBreakerCooldown:
      return "breaker-cooldown";
  }
  util::unreachable("Knob");
}

std::optional<Knob> parse_knob(std::string_view name) {
  for (const Knob knob :
       {Knob::kRetrialCeiling, Knob::kRetrialFloor, Knob::kShedBudget, Knob::kShedBurst,
        Knob::kBreakerThreshold, Knob::kBreakerCooldown}) {
    if (name == to_string(knob)) {
      return knob;
    }
  }
  return std::nullopt;
}

std::optional<std::string> validate_directive(Knob knob, double value) {
  if (!std::isfinite(value)) {
    return "value must be finite";
  }
  switch (knob) {
    case Knob::kRetrialCeiling:
    case Knob::kRetrialFloor:
    case Knob::kBreakerThreshold:
      if (value < 1.0 || value != std::floor(value)) {
        return to_string(knob) + " must be an integer >= 1";
      }
      return std::nullopt;
    case Knob::kShedBudget:
    case Knob::kShedBurst:
      if (value < 0.0) {
        return to_string(knob) + " must be >= 0";
      }
      return std::nullopt;
    case Knob::kBreakerCooldown:
      if (value <= 0.0) {
        return to_string(knob) + " must be > 0";
      }
      return std::nullopt;
  }
  util::unreachable("Knob");
}

void DirectiveMailbox::post(const ControlDirective& directive) {
  const std::lock_guard<std::mutex> lock(mutex_);
  pending_.push_back(directive);
  ++posted_;
}

std::vector<ControlDirective> DirectiveMailbox::drain() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ControlDirective> taken;
  taken.swap(pending_);
  return taken;
}

std::uint64_t DirectiveMailbox::posted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return posted_;
}

obs::ControlOutcome post_control(DirectiveMailbox& mailbox, const std::string& knob_name,
                                 const std::string& body) {
  obs::ControlOutcome outcome;
  const std::optional<Knob> knob = parse_knob(knob_name);
  if (!knob.has_value()) {
    outcome.status = 404;
    outcome.body = "{\"error\":\"unknown knob '" + util::json_escape(knob_name) + "'\"}\n";
    return outcome;
  }
  const std::optional<double> value = util::parse_double(util::trim(body));
  if (!value.has_value()) {
    outcome.status = 422;
    outcome.body = "{\"error\":\"body must be a single number\"}\n";
    return outcome;
  }
  if (const auto error = validate_directive(*knob, *value)) {
    outcome.status = 422;
    outcome.body = "{\"error\":\"" + util::json_escape(*error) + "\"}\n";
    return outcome;
  }
  mailbox.post({*knob, *value});
  outcome.body = "{\"queued\":{\"knob\":\"" + to_string(*knob) +
                 "\",\"value\":" + std::string(util::trim(body)) + "}}\n";
  return outcome;
}

void OpsLogWriter::record(double sim_time, const ControlDirective& directive,
                          double applied_value) {
  *out_ << "{\"ops\":\"directive\",\"t\":" << render_log_number(sim_time) << ",\"knob\":\""
        << to_string(directive.knob) << "\",\"value\":" << render_log_number(directive.value)
        << ",\"applied\":" << render_log_number(applied_value) << "}\n";
  ++entries_;
}

std::vector<TimedDirective> load_ops_log(std::istream& in) {
  std::vector<TimedDirective> directives;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (util::trim(line).empty()) {
      continue;
    }
    util::require(extract_field(line, "ops", line_number) == "directive",
                  [&] {
                    return "ops log line " + std::to_string(line_number) + " is not a directive";
                  });
    TimedDirective timed;
    const std::optional<double> t = util::parse_double(extract_field(line, "t", line_number));
    util::require(t.has_value(),
                  [&] {
                    return "ops log line " + std::to_string(line_number) + " has a bad time";
                  });
    timed.apply_at = *t;
    const std::optional<Knob> knob = parse_knob(extract_field(line, "knob", line_number));
    util::require(knob.has_value(),
                  [&] {
                    return "ops log line " + std::to_string(line_number) + " names an unknown knob";
                  });
    timed.directive.knob = *knob;
    const std::optional<double> value =
        util::parse_double(extract_field(line, "value", line_number));
    util::require(value.has_value(),
                  [&] {
                    return "ops log line " + std::to_string(line_number) + " has a bad value";
                  });
    timed.directive.value = *value;
    util::require(!validate_directive(timed.directive.knob, timed.directive.value).has_value(),
                  [&] {
                    return "ops log line " + std::to_string(line_number) + " fails validation";
                  });
    util::require(directives.empty() || directives.back().apply_at <= timed.apply_at,
                  [&] {
                    return "ops log times must be non-decreasing (line " +
                           std::to_string(line_number) + ")";
                  });
    directives.push_back(timed);
  }
  return directives;
}

}  // namespace anyqos::control
