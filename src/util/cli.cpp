#include "src/util/cli.h"

#include <sstream>

#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::util {

CliFlags::CliFlags(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void CliFlags::declare(std::string name, Flag flag) {
  require(!name.empty(), "flag name must not be empty");
  const auto [it, inserted] = flags_.emplace(std::move(name), std::move(flag));
  require(inserted, [&] { return "duplicate flag declaration: " + it->first; });
}

void CliFlags::add_double(std::string name, double default_value, std::string help) {
  Flag flag;
  flag.kind = Kind::kDouble;
  flag.help = std::move(help);
  flag.as_double = default_value;
  declare(std::move(name), std::move(flag));
}

void CliFlags::add_probability(std::string name, double default_value, std::string help) {
  require(default_value >= 0.0 && default_value <= 1.0,
          [&] { return "default for probability flag --" + name + " must be in [0,1]"; });
  Flag flag;
  flag.kind = Kind::kDouble;
  flag.help = std::move(help);
  flag.as_double = default_value;
  flag.min_value = 0.0;
  flag.max_value = 1.0;
  flag.value_desc = "a probability in [0,1]";
  declare(std::move(name), std::move(flag));
}

void CliFlags::add_duration(std::string name, double default_value, std::string help) {
  require(default_value >= 0.0,
          [&] { return "default for duration flag --" + name + " must be non-negative"; });
  Flag flag;
  flag.kind = Kind::kDouble;
  flag.help = std::move(help);
  flag.as_double = default_value;
  flag.min_value = 0.0;
  flag.value_desc = "a non-negative duration in seconds";
  declare(std::move(name), std::move(flag));
}

void CliFlags::add_unsigned(std::string name, unsigned long long default_value, std::string help) {
  Flag flag;
  flag.kind = Kind::kUnsigned;
  flag.help = std::move(help);
  flag.as_unsigned = default_value;
  declare(std::move(name), std::move(flag));
}

void CliFlags::add_string(std::string name, std::string default_value, std::string help) {
  Flag flag;
  flag.kind = Kind::kString;
  flag.help = std::move(help);
  flag.as_string = std::move(default_value);
  declare(std::move(name), std::move(flag));
}

void CliFlags::add_bool(std::string name, bool default_value, std::string help) {
  Flag flag;
  flag.kind = Kind::kBool;
  flag.help = std::move(help);
  flag.as_bool = default_value;
  declare(std::move(name), std::move(flag));
}

void CliFlags::assign(const std::string& name, std::string_view value) {
  const auto it = flags_.find(name);
  require(it != flags_.end(), [&] { return "unknown flag: --" + name; });
  Flag& flag = it->second;
  switch (flag.kind) {
    case Kind::kDouble: {
      const std::string expects =
          flag.value_desc.empty() ? std::string("a number") : flag.value_desc;
      const auto parsed = parse_double(value);
      require(parsed.has_value(),
              [&] {
                return "flag --" + name + " expects " + expects + ", got '" + std::string(value) +
                       "'";
              });
      require(!flag.min_value.has_value() || *parsed >= *flag.min_value,
              [&] {
                return "flag --" + name + " expects " + expects + ", got " + std::string(value);
              });
      require(!flag.max_value.has_value() || *parsed <= *flag.max_value,
              [&] {
                return "flag --" + name + " expects " + expects + ", got " + std::string(value);
              });
      flag.as_double = *parsed;
      return;
    }
    case Kind::kUnsigned: {
      const auto parsed = parse_unsigned(value);
      require(parsed.has_value(),
              [&] {
                return "flag --" + name + " expects a non-negative integer, got '" +
                       std::string(value) + "'";
              });
      flag.as_unsigned = *parsed;
      return;
    }
    case Kind::kString:
      flag.as_string = std::string(value);
      return;
    case Kind::kBool:
      if (value == "true" || value == "1") {
        flag.as_bool = true;
      } else if (value == "false" || value == "0") {
        flag.as_bool = false;
      } else {
        require(false, "flag --" + name + " expects true/false, got '" + std::string(value) + "'");
      }
      return;
  }
  unreachable("CliFlags::assign kind");
}

void CliFlags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    require(starts_with(arg, "--"), [&] {
      return "arguments must be --flag[=value], got '" + std::string(arg) + "'";
    });
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      assign(std::string(arg.substr(0, eq)), arg.substr(eq + 1));
      continue;
    }
    const std::string name(arg);
    const auto it = flags_.find(name);
    require(it != flags_.end(), [&] { return "unknown flag: --" + name; });
    if (it->second.kind == Kind::kBool) {
      it->second.as_bool = true;
      continue;
    }
    require(i + 1 < argc, [&] { return "flag --" + name + " requires a value"; });
    assign(name, argv[++i]);
  }
}

std::string CliFlags::help_text() const {
  std::ostringstream out;
  out << program_ << " — " << description_ << "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name;
    switch (flag.kind) {
      case Kind::kDouble:
        out << " (double";
        if (flag.min_value.has_value() && flag.max_value.has_value()) {
          out << " in [" << *flag.min_value << "," << *flag.max_value << "]";
        } else if (flag.min_value.has_value()) {
          out << " >= " << *flag.min_value;
        }
        out << ", default " << flag.as_double << ")";
        break;
      case Kind::kUnsigned:
        out << " (uint, default " << flag.as_unsigned << ")";
        break;
      case Kind::kString:
        out << " (string, default '" << flag.as_string << "')";
        break;
      case Kind::kBool:
        out << " (bool, default " << (flag.as_bool ? "true" : "false") << ")";
        break;
    }
    out << "\n      " << flag.help << "\n";
  }
  return out.str();
}

const CliFlags::Flag& CliFlags::find(std::string_view name, Kind kind) const {
  const auto it = flags_.find(name);
  require(it != flags_.end(), [&] { return "flag was never declared: " + std::string(name); });
  require(it->second.kind == kind,
          [&] { return "flag accessed with wrong type: " + std::string(name); });
  return it->second;
}

double CliFlags::get_double(std::string_view name) const { return find(name, Kind::kDouble).as_double; }

unsigned long long CliFlags::get_unsigned(std::string_view name) const {
  return find(name, Kind::kUnsigned).as_unsigned;
}

const std::string& CliFlags::get_string(std::string_view name) const {
  return find(name, Kind::kString).as_string;
}

bool CliFlags::get_bool(std::string_view name) const { return find(name, Kind::kBool).as_bool; }

}  // namespace anyqos::util
