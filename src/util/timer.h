#ifndef TASTI_UTIL_TIMER_H_
#define TASTI_UTIL_TIMER_H_

/// \file timer.h
/// Wall-clock timing for construction-cost experiments and the
/// observability layer's phase attribution.

#include <chrono>

namespace tasti {

/// Monotonic stopwatch with pause/resume accumulation. Starts running on
/// construction. Pause()/Resume() let a phase timer exclude nested work —
/// e.g. a query-phase timer pauses while the target labeler runs, so
/// algorithm time and oracle time are attributed separately (see
/// obs::TimedOracle).
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Resets accumulated time and restarts from now.
  void Restart() {
    accumulated_ = 0.0;
    running_ = true;
    start_ = Clock::now();
  }

  /// Stops the clock, banking the elapsed time. No-op if already paused.
  void Pause() {
    if (!running_) return;
    accumulated_ += std::chrono::duration<double>(Clock::now() - start_).count();
    running_ = false;
  }

  /// Restarts the clock after a Pause(). No-op if already running.
  void Resume() {
    if (running_) return;
    running_ = true;
    start_ = Clock::now();
  }

  bool running() const { return running_; }

  /// Accumulated elapsed seconds, excluding paused intervals.
  double Seconds() const {
    double total = accumulated_;
    if (running_) {
      total += std::chrono::duration<double>(Clock::now() - start_).count();
    }
    return total;
  }

  /// Elapsed milliseconds.
  double Millis() const { return Seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
  double accumulated_ = 0.0;
  bool running_ = true;
};

}  // namespace tasti

#endif  // TASTI_UTIL_TIMER_H_
