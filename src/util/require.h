// Precondition / invariant checking helpers.
//
// The library uses exceptions for contract violations so that misuse of the
// public API is reported loudly instead of corrupting simulation state.
// `require` is for caller-supplied preconditions (throws std::invalid_argument),
// `ensure` is for internal invariants (throws std::logic_error).
//
// Both are inline with an [[unlikely]] test and an out-of-line cold thrower,
// so a passing check costs one predictable branch. A message that has to be
// formatted (std::to_string, operator+) goes in a callable, which runs only
// when the check fails:
//
//   util::require(it != end, [&] { return "flow not active: " + std::to_string(id); });
#pragma once

#include <concepts>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace anyqos::util {

/// Exception thrown when an internal invariant is violated. Catching this
/// (other than at a top-level error boundary) is almost always a bug.
class InvariantError : public std::logic_error {
 public:
  explicit InvariantError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
/// Cold throwers behind require/ensure; out of line so the passing path stays
/// a single branch.
[[noreturn]] void throw_require(std::string_view message);
[[noreturn]] void throw_ensure(std::string_view message);
}  // namespace detail

/// Throws std::invalid_argument with `message` when `condition` is false.
/// Use for validating caller-supplied arguments at public API boundaries.
inline void require(bool condition, std::string_view message) {
  if (!condition) [[unlikely]] {
    detail::throw_require(message);
  }
}

/// require() with a lazily built message: `make_message()` runs only when
/// `condition` is false.
template <std::invocable MakeMessage>
inline void require(bool condition, MakeMessage&& make_message) {
  if (!condition) [[unlikely]] {
    detail::throw_require(std::forward<MakeMessage>(make_message)());
  }
}

/// Throws InvariantError with `message` when `condition` is false.
/// Use for internal consistency checks.
inline void ensure(bool condition, std::string_view message) {
  if (!condition) [[unlikely]] {
    detail::throw_ensure(message);
  }
}

/// ensure() with a lazily built message.
template <std::invocable MakeMessage>
inline void ensure(bool condition, MakeMessage&& make_message) {
  if (!condition) [[unlikely]] {
    detail::throw_ensure(std::forward<MakeMessage>(make_message)());
  }
}

/// Unconditionally reports an unreachable code path.
[[noreturn]] void unreachable(std::string_view message);

}  // namespace anyqos::util
