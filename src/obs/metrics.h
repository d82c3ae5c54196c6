#ifndef TASTI_OBS_METRICS_H_
#define TASTI_OBS_METRICS_H_

/// \file metrics.h
/// Named counters, gauges, and fixed-bucket histograms with a JSON
/// snapshot exporter.
///
/// Instruments register once (get-or-create under a mutex) and are updated
/// lock-free with relaxed atomics, so ThreadPool workers can bump the same
/// counter concurrently without contention beyond the cache line. Hot
/// paths cache the instrument pointer — instruments are never destroyed
/// while the process runs (the global registry is leaked) — and guard the
/// update with obs::MetricsEnabled() so a disabled metric costs one
/// relaxed load and a branch:
///
///   if (obs::MetricsEnabled()) {
///     static obs::Counter* const calls =
///         obs::MetricsRegistry::Global().counter("kernels.gemmbt.calls");
///     calls->Increment();
///   }
///
/// The snapshot schema follows the BENCH_*.json conventions: a flat array
/// of objects, one per metric, with explicit names and units (DESIGN.md
/// §8 documents the metric names).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/config.h"
#include "util/status.h"

namespace tasti::obs {

/// Monotonically increasing count (relaxed atomic increments).
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written value (e.g. current queue depth, current rep count).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket upper bounds are set at registration and
/// never change, so concurrent Observe() calls touch only atomics.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing; an implicit +inf bucket
  /// is appended.
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Count in bucket `i` (values <= upper_bounds()[i]; the final bucket is
  /// the +inf overflow).
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  size_t num_buckets() const { return buckets_.size(); }

  /// Estimated q-quantile (q in [0, 1]) by linear interpolation over the
  /// bucket bounds — see QuantileFromBuckets(). Returns 0 when empty.
  double Quantile(double q) const;

  void Reset();

 private:
  std::vector<double> upper_bounds_;  // excludes the +inf bucket
  std::vector<std::atomic<uint64_t>> buckets_;  // upper_bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Exponential bucket bounds: {start, start*factor, ...} (`count` bounds).
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);

/// Quantile estimate from bucketed counts shared by Histogram and the
/// sliding-window sketches in obs/live.h. `bucket_counts` has
/// upper_bounds.size() + 1 entries (the last is the +inf overflow) and
/// `count` is their total. The target rank q*count is located in its
/// bucket and interpolated linearly between the bucket's bounds; the first
/// bucket's lower bound is min(0, upper_bounds[0]) and a rank landing in
/// the overflow bucket returns the last finite bound (the estimate is
/// clamped, not extrapolated).
double QuantileFromBuckets(const std::vector<double>& upper_bounds,
                           const uint64_t* bucket_counts, uint64_t count,
                           double q);

/// One instrument's state as captured by MetricsRegistry::Samples().
/// Decouples exporters (JSON, Prometheus exposition in obs/live.h) from
/// the registry's internal entry layout.
struct MetricSample {
  std::string name;
  std::string unit;
  char kind = 'c';  // 'c' counter, 'g' gauge, 'h' histogram
  double value = 0.0;                   // counter / gauge
  uint64_t count = 0;                   // histogram
  double sum = 0.0;                     // histogram
  std::vector<double> upper_bounds;     // histogram (finite bounds)
  std::vector<uint64_t> bucket_counts;  // histogram (+inf bucket last)
};

/// Name-keyed instrument registry with a JSON snapshot exporter.
/// Instrument pointers are stable for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry (leaked, so instruments outlive worker threads).
  static MetricsRegistry& Global();

  /// Get-or-create. `unit` is recorded on first registration ("calls",
  /// "micros", "records", ...).
  Counter* counter(const std::string& name, const std::string& unit = "");
  Gauge* gauge(const std::string& name, const std::string& unit = "");
  /// `upper_bounds` applies only on first registration.
  Histogram* histogram(const std::string& name,
                       std::vector<double> upper_bounds,
                       const std::string& unit = "");

  /// Zeroes every instrument (registrations persist).
  void ResetAll();

  /// Point-in-time copy of every instrument, sorted by name. Values are
  /// read with relaxed loads, so a sample taken during a live workload is
  /// per-instrument consistent, not cross-instrument consistent.
  std::vector<MetricSample> Samples() const;

  /// JSON snapshot: an array of flat objects sorted by metric name, e.g.
  ///   [{"metric": "index.builds", "type": "counter", "unit": "builds",
  ///     "value": 1}, ...]
  /// Histograms carry "count", "sum", and a "buckets" array of
  /// {"le": bound, "count": n} (le = "less than or equal"; the final
  /// bucket has "le": "inf").
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  Status WriteJson(const std::string& path) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    std::string unit;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrNull(const std::string& name);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace tasti::obs

#endif  // TASTI_OBS_METRICS_H_
