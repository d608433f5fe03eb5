#pragma once

#include <chrono>

namespace dp::util {

/// Wall-clock stopwatch used by the benchmark harnesses and the placer's
/// per-stage runtime reporting.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Elapsed seconds since construction.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace dp::util
