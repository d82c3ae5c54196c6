#ifndef TASTI_SERVE_SHEDDER_H_
#define TASTI_SERVE_SHEDDER_H_

/// \file shedder.h
/// Admission-time load shedding.
///
/// LoadShedder implements a CoDel-flavored admission policy: rather than
/// queueing unboundedly and timing every query out at once, it estimates
/// the queue wait a new query would see (queue depth x an EWMA of service
/// time) and rejects it up front with ResourceExhausted plus a retry-after
/// hint when the estimate exceeds the target for its priority class.
/// Priority classes degrade in order — best-effort sheds first, batch
/// next, interactive last — and a sustained period of queue waits above
/// the target (the CoDel signal) flips an `overloaded` latch that sheds
/// lower classes more aggressively until waits recover.

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace tasti::serve {

/// Priority classes, in strictly decreasing retention order under load.
enum class QueryPriority {
  kInteractive = 0,
  kBatch = 1,
  kBestEffort = 2,
};

inline constexpr size_t kNumQueryPriorities = 3;

/// Short stable name for logs and exposition labels.
const char* QueryPriorityName(QueryPriority priority);

struct ShedderOptions {
  /// Master switch; disabled shedders admit everything.
  bool enabled = false;
  /// CoDel target: the queue wait the server is willing to impose on a
  /// best-effort query. Admission thresholds are multiples of this.
  double target_wait_ms = 50.0;
  /// CoDel interval: queue waits continuously above target for this long
  /// flip the overloaded latch.
  double interval_ms = 500.0;
  /// Seed for the service-time EWMA before any completion is observed.
  double initial_service_ms = 1.0;
  /// Per-class admission threshold = target_wait_ms * multiplier.
  double interactive_multiplier = 8.0;
  double batch_multiplier = 3.0;
  double best_effort_multiplier = 1.0;
};

struct ShedDecision {
  bool admit = true;
  /// Estimated queue wait the query would have seen, in ms.
  double estimated_wait_ms = 0.0;
  /// Suggested client backoff before resubmitting, in ms (sheds only).
  double retry_after_ms = 0.0;
};

struct ShedderStats {
  uint64_t admitted = 0;
  uint64_t shed_total = 0;
  std::array<uint64_t, kNumQueryPriorities> shed_by_class{};
  /// Times the CoDel latch flipped from normal to overloaded.
  uint64_t overload_entries = 0;
  bool overloaded = false;
  double ewma_service_ms = 0.0;
};

/// Thread-safe admission controller. Decisions are a pure function of
/// (options, queue depth, EWMA state), so with a quiesced EWMA — e.g. all
/// workers gated in a test — a fixed submission order sheds identically
/// every run.
class LoadShedder {
 public:
  explicit LoadShedder(ShedderOptions options);

  /// Admission decision for a query of class `priority` arriving with
  /// `depth` queries already queued or executing ahead of it.
  ShedDecision Admit(QueryPriority priority, size_t depth);

  /// Completion feedback: the query waited `queue_wait_ms` in the queue
  /// (the CoDel signal) and executed for `service_ms`; `now_ms` is any
  /// monotonic clock reading used only to time the CoDel interval.
  void OnQueryDone(double queue_wait_ms, double service_ms, double now_ms);

  ShedderStats stats() const;
  const ShedderOptions& options() const { return options_; }

 private:
  double ThresholdFor(QueryPriority priority) const;

  ShedderOptions options_;
  mutable std::mutex mu_;
  double ewma_service_ms_;
  bool overloaded_ = false;
  /// Start of the current above-target streak; <0 when not in a streak.
  double above_target_since_ms_ = -1.0;
  ShedderStats stats_;
};

}  // namespace tasti::serve

#endif  // TASTI_SERVE_SHEDDER_H_
