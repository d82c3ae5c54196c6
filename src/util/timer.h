#ifndef TASTI_UTIL_TIMER_H_
#define TASTI_UTIL_TIMER_H_

/// \file timer.h
/// Wall-clock stopwatch for whole-operation times (index builds, served
/// queries, queue waits). Phase times inside a build or a query come from
/// trace spans instead (obs::SpanTotals in obs/trace.h).

#include <chrono>

namespace tasti {

/// Monotonic stopwatch. Starts running on construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Restarts from now.
  void Restart() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last Restart().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds.
  double Millis() const { return Seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace tasti

#endif  // TASTI_UTIL_TIMER_H_
