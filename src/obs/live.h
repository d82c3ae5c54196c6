#ifndef TASTI_OBS_LIVE_H_
#define TASTI_OBS_LIVE_H_

/// \file live.h
/// Live telemetry primitives for the serving path: sliding-window quantile
/// sketches, multi-window SLO burn-rate tracking, a bounded flight
/// recorder for slow-query forensics, and a Prometheus-style text
/// exposition of derived live stats.
///
/// Everything here is driven by an injectable Clock, so tests advance a
/// ManualClock instead of sleeping: window rotation, burn-rate decay, and
/// alert cooldowns are all deterministic functions of the observed
/// timestamps (DESIGN.md §12).

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/status.h"

namespace tasti::obs {

// ---------------------------------------------------------------------------
// Clocks

/// Seconds-valued clock; the live-telemetry analogue of the virtual clock
/// in labeler::ResilientLabeler. Implementations must be thread-safe.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual double NowSeconds() const = 0;
};

/// Real time on the steady clock (seconds since construction).
class SteadyClock : public Clock {
 public:
  SteadyClock();
  double NowSeconds() const override;

 private:
  int64_t epoch_ns_;
};

/// Test clock advanced explicitly.
class ManualClock : public Clock {
 public:
  explicit ManualClock(double start_seconds = 0.0) : now_(start_seconds) {}
  double NowSeconds() const override {
    return now_.load(std::memory_order_relaxed);
  }
  void Advance(double seconds) {
    now_.fetch_add(seconds, std::memory_order_relaxed);
  }
  void Set(double seconds) { now_.store(seconds, std::memory_order_relaxed); }

 private:
  std::atomic<double> now_;
};

// ---------------------------------------------------------------------------
// Sliding-window quantile sketch

/// Exponential bucket bounds: {start, start*factor, ...} (`count` bounds).
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);

/// Quantile estimate from bucketed counts. `bucket_counts` has
/// upper_bounds.size() + 1 entries (the last is the +inf overflow) and
/// `count` is their total. The target rank q*count is located in its
/// bucket and interpolated linearly between the bucket's bounds; the first
/// bucket's lower bound is min(0, upper_bounds[0]) and a rank landing in
/// the overflow bucket returns the last finite bound (the estimate is
/// clamped, not extrapolated).
double QuantileFromBuckets(const std::vector<double>& upper_bounds,
                           const uint64_t* bucket_counts, uint64_t count,
                           double q);

/// Merged view of the slots inside the window at snapshot time.
struct WindowSnapshot {
  std::vector<double> upper_bounds;   // finite bounds
  std::vector<uint64_t> buckets;      // upper_bounds.size() + 1 (+inf last)
  uint64_t count = 0;
  double sum = 0.0;

  double Quantile(double q) const {
    return QuantileFromBuckets(upper_bounds, buckets.data(), count, q);
  }
  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Quantile estimates over a sliding time window.
///
/// A ring of `num_slots` fixed-bucket histograms; slot s covers the time
/// interval [s*slot_seconds, (s+1)*slot_seconds). Observe() hashes the
/// observation's timestamp to its absolute slot index; if the ring
/// position holds a stale slot (an earlier rotation), it is zeroed and
/// reused — old data ages out slot by slot with no background thread.
/// Snapshot() merges the slots whose interval overlaps
/// [now - window, now]. The mutex guards only bucket bumps and merges
/// (microseconds), which keeps the sketch lock-cheap at serving rates.
class SlidingQuantileSketch {
 public:
  /// `upper_bounds` must be strictly increasing; an implicit +inf bucket
  /// is appended. The covered window is num_slots * slot_seconds.
  SlidingQuantileSketch(std::vector<double> upper_bounds, double slot_seconds,
                        size_t num_slots);

  void Observe(double value, double now_seconds);

  /// Merges every slot still inside the window ending at `now_seconds`.
  WindowSnapshot Snapshot(double now_seconds) const;

  double window_seconds() const {
    return slot_seconds_ * static_cast<double>(slots_.size());
  }

 private:
  struct Slot {
    int64_t index = -1;  // absolute slot index, -1 = never written
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    double sum = 0.0;
  };

  int64_t SlotIndex(double now_seconds) const;

  const std::vector<double> upper_bounds_;
  const double slot_seconds_;
  mutable std::mutex mu_;
  std::vector<Slot> slots_;
};

// ---------------------------------------------------------------------------
// SLO tracking with multi-window burn rates

/// The objectives a TastiServer SLO covers. Each is expressed as a target
/// fraction of good events; the error budget is 1 - target.
enum class SloObjective {
  kLatency,       // query latency <= latency_threshold_ms
  kErrors,        // query status ok
  kOracleBudget,  // attributed oracle invocations <= budget per query
  kIndexDrift,    // drift ratio below threshold (event = epoch publish)
};

const char* SloObjectiveName(SloObjective objective);

struct SloConfig {
  double latency_threshold_ms = 250.0;
  double latency_target = 0.99;  // fraction of queries under the threshold
  double error_target = 0.999;   // fraction of queries returning ok
  /// Per-query oracle invocation budget; 0 disables the objective, whose
  /// target is 95% of queries within the budget.
  double oracle_budget_per_query = 0.0;

  /// Multi-window burn-rate evaluation (fast + slow window must both
  /// burn): the fast window catches the regression quickly, the slow
  /// window keeps one bad burst from paging.
  double fast_window_seconds = 300.0;    // 5 min
  double slow_window_seconds = 3600.0;   // 1 hr
  /// Alert when burn = bad_fraction / error_budget meets this in both
  /// windows (burn 1.0 = exactly consuming budget at the sustainable
  /// rate).
  double burn_rate_threshold = 2.0;
  /// The fast window needs at least this many events before it can alert
  /// (suppresses single-query noise at startup).
  uint64_t min_events = 5;
  /// Re-arm delay per objective after an alert fires.
  double alert_cooldown_seconds = 60.0;
};

/// Structured alert raised by the SLO tracker (and by the server monitor
/// for fault / breaker events).
struct Alert {
  SloObjective objective = SloObjective::kErrors;
  std::string message;
  double fired_at_seconds = 0.0;
  double burn_fast = 0.0;
  double burn_slow = 0.0;
};

/// Burn rates for one objective at evaluation time.
struct BurnRates {
  double fast = 0.0;
  double slow = 0.0;
  uint64_t fast_events = 0;
  uint64_t slow_events = 0;
};

/// Tracks good/bad events per objective in fast and slow sliding windows
/// and raises Alerts on sustained burn. Thread-safe; time comes from the
/// caller so tests are deterministic.
class SloTracker {
 public:
  explicit SloTracker(SloConfig config);

  /// Classifies one completed query against every enabled objective.
  void RecordQuery(double now_seconds, double latency_ms, bool ok,
                   uint64_t oracle_invocations);

  /// Records an explicit good/bad event for an objective (used by the
  /// index-drift monitor, whose events are epoch publishes, not queries).
  void RecordEvent(SloObjective objective, bool bad, double now_seconds);

  /// Current burn rates for an objective.
  BurnRates Burn(SloObjective objective, double now_seconds) const;

  /// Drains alerts raised since the last call.
  std::vector<Alert> TakeAlerts();

  uint64_t alerts_raised() const;
  const SloConfig& config() const { return config_; }

 private:
  /// Good/bad counts in a sliding window, same slot-ring design as the
  /// quantile sketch.
  struct SlidingCounter {
    struct Slot {
      int64_t index = -1;
      uint64_t good = 0;
      uint64_t bad = 0;
    };
    double slot_seconds = 0.0;
    std::vector<Slot> slots;

    void Init(double window_seconds, size_t num_slots);
    void Record(bool bad, double now_seconds);
    void Totals(double now_seconds, uint64_t* good, uint64_t* bad) const;
  };

  struct Objective {
    bool enabled = false;
    double error_budget = 0.0;
    SlidingCounter fast;
    SlidingCounter slow;
    double last_alert_seconds = -1.0;
  };

  void RecordLocked(SloObjective objective, bool bad, double now_seconds);
  void EvaluateLocked(SloObjective objective, double now_seconds);
  BurnRates BurnLocked(const Objective& state, double now_seconds) const;

  const SloConfig config_;
  mutable std::mutex mu_;
  std::array<Objective, 4> objectives_;
  std::vector<Alert> pending_;
  uint64_t alerts_raised_ = 0;
};

// ---------------------------------------------------------------------------
// Flight recorder

/// Bounded per-thread rings of recent spans — a "black box" that is cheap
/// enough to leave on in production (fixed memory, no growth) and is only
/// serialized when something goes wrong. Spans arrive via obs::Span when
/// kSpanSinkFlight is set; timestamps share TraceRecorder::Global()'s
/// epoch so flight dumps and full traces line up.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacityPerThread = 2048;

  explicit FlightRecorder(size_t capacity_per_thread = kDefaultCapacityPerThread);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Process-wide recorder targeted by Span (leaked, like
  /// TraceRecorder::Global()).
  static FlightRecorder& Global();

  /// Appends one completed span to the calling thread's ring (overwrites
  /// the oldest entry when full).
  void Record(const char* name, int64_t ts_us, int64_t dur_us);

  /// Merged copy of every ring, ordered by timestamp (ties: longer span
  /// first, so parents precede children).
  std::vector<TraceEvent> Snapshot() const;

  /// Events currently buffered across all rings.
  size_t event_count() const;

  size_t capacity_per_thread() const { return capacity_; }

  void Clear();

  /// Chrome trace_event JSON using "B"/"E" begin/end pairs plus one "i"
  /// instant event named "flight.dump" carrying `reason` — the shape
  /// tools/validate_trace --flight checks.
  std::string ToChromeJson(const std::string& reason) const;

  /// Writes ToChromeJson(reason) to `path`.
  Status Dump(const std::string& path, const std::string& reason) const;

 private:
  struct Ring {
    mutable std::mutex mu;
    std::vector<TraceEvent> events;  // capacity_ entries once saturated
    size_t next = 0;                 // overwrite cursor
    std::thread::id owner;
    uint32_t tid = 0;
  };

  Ring* RingForThisThread();

  const size_t capacity_;
  const uint64_t recorder_id_;
  mutable std::mutex mu_;  // guards rings_ (the list, not the contents)
  std::vector<std::unique_ptr<Ring>> rings_;
  uint32_t next_tid_ = 1;
};

// ---------------------------------------------------------------------------
// Prometheus-style exposition

/// One derived sample (quantiles, burn rates, health ratios). `labels`
/// become Prometheus labels.
struct LiveSample {
  std::string name;  // full family name, e.g. "tasti_query_latency_ms"
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;
  char type = 'g';  // 'g' gauge, 'c' counter
  std::string help;  // optional; first sample of a family wins
};

/// Bag of derived samples, typically filled by serve::ServerMonitor.
struct LiveStats {
  std::vector<LiveSample> samples;

  void Add(std::string name, double value,
           std::vector<std::pair<std::string, std::string>> labels = {},
           char type = 'g', std::string help = "") {
    samples.push_back(LiveSample{std::move(name), std::move(labels), value,
                                 type, std::move(help)});
  }
};

/// Prometheus text-exposition (version 0.0.4) rendering of the live
/// samples. Samples are grouped by family, families in order of first
/// appearance, so each family has one TYPE line over contiguous samples
/// even when `live` merges several monitors' samples; already-grouped
/// input renders in its own order.
std::string WriteExposition(const LiveStats& live);

/// Writes WriteExposition() to `path`.
Status WriteExpositionFile(const LiveStats& live, const std::string& path);

}  // namespace tasti::obs

#endif  // TASTI_OBS_LIVE_H_
