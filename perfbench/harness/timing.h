// Host-clock helpers shared by the harness.
#pragma once

#include <chrono>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Keeps `value` observable so the optimiser cannot drop the timed calls
/// that produced it.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

}  // namespace perfbench
