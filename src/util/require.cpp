#include "src/util/require.h"

namespace anyqos::util {

namespace detail {

void throw_require(std::string_view message) {
  throw std::invalid_argument(std::string(message));
}

void throw_ensure(std::string_view message) { throw InvariantError(std::string(message)); }

}  // namespace detail

void unreachable(std::string_view message) {
  throw InvariantError("unreachable: " + std::string(message));
}

}  // namespace anyqos::util
