// Small string helpers used by CLI parsing and report formatting.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace anyqos::util {

/// Splits `text` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Parses a decimal double; returns nullopt on any trailing garbage.
std::optional<double> parse_double(std::string_view text);

/// Parses a decimal non-negative integer; returns nullopt on any trailing
/// garbage or a minus sign.
std::optional<unsigned long long> parse_unsigned(std::string_view text);

/// True when `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// True when `text` ends with `suffix`.
bool ends_with(std::string_view text, std::string_view suffix);

/// Formats `value` with `digits` digits after the decimal point.
std::string format_fixed(double value, int digits);

/// Escapes `text` for embedding inside a JSON string literal: backslash,
/// double quote, and control characters (\b \f \n \r \t, \u00XX otherwise).
std::string json_escape(std::string_view text);

/// Appends json_escape(text) to `out`.
void append_json_escaped(std::string& out, std::string_view text);

/// Appends `value` in decimal, as `std::ostream << value` writes it.
void append_decimal(std::string& out, std::uint64_t value);

/// Appends `value` as a JSON number: printf "%.17g" (exact round trip), or
/// `null` when it is not finite.
void append_json_number(std::string& out, double value);

}  // namespace anyqos::util
