#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/// \file trace.h
/// The benchmark's own spans: name, start, end, parent span and query id,
/// recorded around calls into the library's layers, kept in memory and
/// written as a Chrome trace when the run ends.
///
/// Naming convention: spans named "bench.*" are structure (a timed window,
/// one query of a replay); every other span is a layer span named
/// "<layer>.<step>" after the module it calls into. A window is the wall
/// time the layer spans inside it should account for.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index into Tracer::spans(), -1 at top level
  uint64_t query_id = 0;  ///< 0 when the span belongs to no single query
  uint32_t thread = 0;    ///< dense per-tracer thread number
};

/// Thread-safe span store. A disabled tracer records nothing, so the same
/// code path runs traced and untraced.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread (parent: the thread's innermost
  /// open span) and returns its index, or -1 when disabled.
  int64_t Begin(const char* name, uint64_t query_id);
  void End(int64_t index);
  /// Sets the query id of an open span (ids known only after it opened).
  void SetQueryId(int64_t index, uint64_t query_id);

  /// Every recorded span. Read quiescent (no span open on another thread).
  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of spans called `name`, in seconds.
  double TotalSeconds(const std::string& name) const;
  /// Number of spans called `name`.
  size_t Count(const std::string& name) const;
  /// Summed duration of spans whose name starts with `prefix`, minus the
  /// part of each interval covered by its direct children.
  double SelfSeconds(const std::string& prefix) const;
  /// 1 - (layer time / window time): the share of the windows' wall time
  /// that no layer span covers. Layer time is the duration of every
  /// non-"bench." span whose parent is a "bench." span or none.
  double UnaccountedFraction() const;

  /// Writes {"traceEvents": [...], "metadata": <metadata_json>}.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& metadata_json) const;

 private:
  const bool enabled_;
  std::mutex mu_;  // guards spans_ and thread_ids_
  std::vector<Span> spans_;
  std::vector<uint64_t> thread_ids_;  // hashed std::thread::id per number
};

/// RAII span; a null or disabled tracer makes it free.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t query_id = 0)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Begin(name, query_id) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_->End(index_);
  }
  void set_query_id(uint64_t query_id) {
    if (index_ >= 0) tracer_->SetQueryId(index_, query_id);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
