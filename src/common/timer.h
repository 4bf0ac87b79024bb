// Steady-clock time: the millisecond clock every deadline is measured on,
// and a minimal wall-clock timer for the efficiency experiments (Table II).
#pragma once

#include <chrono>
#include <cstdint>

namespace diffpattern::common {

/// Milliseconds on the steady clock: the time base of every deadline.
inline std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace diffpattern::common
