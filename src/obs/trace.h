#ifndef TASTI_OBS_TRACE_H_
#define TASTI_OBS_TRACE_H_

/// \file trace.h
/// Low-overhead tracing with RAII spans and Chrome trace_event export.
///
/// Spans record where wall time goes across index construction and query
/// processing, and they are the only phase timer: BuildStats and the
/// QueryLog's phase times are span totals read through a SpanTotals scope.
/// When tracing is on, each completed span also becomes one Chrome "X"
/// (complete) event — name, steady-clock timestamp, duration, thread id —
/// so the export is well-formed by construction (no unpaired begin/end) and
/// loads directly in chrome://tracing or Perfetto.
///
/// Concurrency: events land in per-thread buffers. Each buffer has its own
/// mutex (uncontended on the hot path — only export racing a writer ever
/// blocks), and the buffer registry is guarded separately. A span with no
/// sink on and no SpanTotals scope live costs one relaxed atomic load, one
/// thread-local load and a branch; nothing is allocated.
///
/// Span names must be string literals (or otherwise outlive the recorder):
/// events store the pointer, not a copy.
///
///   {
///     obs::Span span("index.embed");
///     ...  // work
///   }  // event recorded here, if tracing was enabled at construction
///
/// The span naming scheme is documented in DESIGN.md §8.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/config.h"
#include "util/status.h"

namespace tasti::obs {

/// One completed span. Timestamps are microseconds on the steady clock,
/// relative to the recorder's construction (or last Clear()).
struct TraceEvent {
  const char* name = nullptr;
  int64_t ts_us = 0;
  int64_t dur_us = 0;
  uint32_t tid = 0;
};

/// Collects spans from any number of threads and exports Chrome trace
/// JSON. Thread-safe. Use Global() for the process-wide recorder that the
/// Span(name) convenience constructor targets.
class TraceRecorder {
 public:
  TraceRecorder();
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Process-wide recorder (never destroyed, so worker threads may record
  /// during static teardown without use-after-free).
  static TraceRecorder& Global();

  /// Microseconds since the recorder epoch (steady clock).
  int64_t NowMicros() const;
  /// Microseconds from the recorder epoch to `t`.
  int64_t ToMicros(std::chrono::steady_clock::time_point t) const;

  /// Appends one completed event from the calling thread.
  void Record(const char* name, int64_t ts_us, int64_t dur_us);

  /// Snapshot of every buffered event (merged across threads, ordered by
  /// timestamp).
  std::vector<TraceEvent> Snapshot() const;

  /// Total buffered events.
  size_t event_count() const;

  /// Drops all buffered events and resets the epoch.
  void Clear();

  /// Chrome trace_event JSON: {"traceEvents": [...]} with "X" phase
  /// events, ts/dur in microseconds.
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  Status WriteJson(const std::string& path) const;

 private:
  struct ThreadBuffer {
    mutable std::mutex mu;
    std::vector<TraceEvent> events;
    std::thread::id owner;
    uint32_t tid = 0;
  };

  ThreadBuffer* BufferForThisThread();

  const uint64_t recorder_id_;
  mutable std::mutex mu_;  // guards buffers_ (the list, not the contents)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::chrono::steady_clock::time_point epoch_;
  uint32_t next_tid_ = 1;
};

class SpanTotals;

namespace internal {
/// Innermost live SpanTotals of the calling thread (null when none).
inline constinit thread_local SpanTotals* t_span_totals = nullptr;
}  // namespace internal

/// RAII scope that sums, per span name, the nanoseconds of every Span that
/// opens and closes on this thread while the scope is alive — whether or
/// not any trace or flight sink is on. Scopes nest: only the innermost
/// live scope on a thread receives spans, so a nested scope (e.g. an index
/// build inside a session query) hides the outer one until it closes.
/// Spans must nest inside the scope, as RAII locals do. Not thread-safe:
/// read it on the thread that opened it.
///
///   obs::SpanTotals spans;
///   RunQuery();                                  // opens TASTI_SPANs
///   double oracle = spans.Seconds("oracle.call");
class SpanTotals {
 public:
  SpanTotals() : outer_(internal::t_span_totals) {
    internal::t_span_totals = this;
  }
  ~SpanTotals() { internal::t_span_totals = outer_; }

  SpanTotals(const SpanTotals&) = delete;
  SpanTotals& operator=(const SpanTotals&) = delete;

  /// Summed duration of the spans named `name` closed within this scope
  /// (0 if none).
  int64_t Nanos(const char* name) const;
  double Seconds(const char* name) const {
    return static_cast<double>(Nanos(name)) * 1e-9;
  }

 private:
  friend class Span;
  /// Adds one closed span.
  void Add(const char* name, int64_t nanos);

  /// More distinct names than src/ opens in one build or query; a new
  /// name beyond it is not counted.
  static constexpr size_t kMaxNames = 48;
  struct Total {
    const char* name;
    int64_t nanos;
  };
  SpanTotals* outer_;
  // Inline, not a vector: the scope must not allocate. Heap chunks taken
  // mid-build shift where the build's matrices land, which slowed index
  // construction measurably. A handful of names per scope: linear scan.
  Total totals_[kMaxNames];
  size_t count_ = 0;
};

/// RAII span over the global sinks and the thread's SpanTotals scope. The
/// sink mask is sampled once at construction (a span that straddles a
/// disable still completes — events are never half-recorded): bit
/// kSpanSinkTrace sends the completed span to TraceRecorder::Global(), bit
/// kSpanSinkFlight additionally to the bounded FlightRecorder ring
/// (obs/live.h). The clock is read only when a sink is on or a SpanTotals
/// scope is live; otherwise the constructor is one relaxed load, one
/// thread-local load and a branch, and the destructor one branch.
class Span {
 public:
  explicit Span(const char* name) : sinks_(SpanSinks()) {
    if (sinks_ != 0 || internal::t_span_totals != nullptr) {
      name_ = name;
      start_ = std::chrono::steady_clock::now();
    }
  }

  /// Records into a specific recorder regardless of the global flags
  /// (test hook).
  Span(TraceRecorder* recorder, const char* name)
      : recorder_(recorder),
        name_(name),
        start_(std::chrono::steady_clock::now()) {}

  ~Span() {
    if (recorder_ != nullptr) {
      const int64_t ts_us = recorder_->ToMicros(start_);
      recorder_->Record(name_, ts_us, recorder_->NowMicros() - ts_us);
    } else if (name_ != nullptr) {
      Finish();
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  /// Out of line: adds the completed span to the thread's SpanTotals scope
  /// and fans it out to the global sinks chosen at construction (both
  /// sinks share TraceRecorder::Global()'s clock so trace exports and
  /// flight dumps line up on one timebase).
  void Finish();

  TraceRecorder* recorder_ = nullptr;
  const char* name_ = nullptr;  // set iff the clock was read
  std::chrono::steady_clock::time_point start_;
  uint32_t sinks_ = 0;
};

namespace internal {
/// Appends `s` to `out` with JSON string escaping (shared by the trace
/// and flight-recorder exporters).
void AppendJsonEscaped(const char* s, std::string* out);
}  // namespace internal

}  // namespace tasti::obs

/// Names a scoped span without inventing a variable name at the call site.
#define TASTI_SPAN_CONCAT_(a, b) a##b
#define TASTI_SPAN_CONCAT(a, b) TASTI_SPAN_CONCAT_(a, b)
#define TASTI_SPAN(name) \
  ::tasti::obs::Span TASTI_SPAN_CONCAT(tasti_span_, __LINE__)(name)

#endif  // TASTI_OBS_TRACE_H_
