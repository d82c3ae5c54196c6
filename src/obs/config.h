#ifndef TASTI_OBS_CONFIG_H_
#define TASTI_OBS_CONFIG_H_

/// \file config.h
/// Global observability switches.
///
/// Tracing and flight recording are off by default and must cost next to
/// nothing while off: every span guards itself with one relaxed atomic
/// load and a branch (a Span also loads its thread's SpanTotals scope,
/// trace.h). The flags are constinit atomics — no static initialization
/// guard on the hot path. There is no metrics switch: every event is
/// counted once, always, in its owner's stats struct (DESIGN.md §8).
///
/// Spans have two possible sinks, packed into one atomic bitmask so the
/// disabled path still pays exactly one relaxed load:
///  - kSpanSinkTrace: the unbounded TraceRecorder (full tracing; export
///    with --trace),
///  - kSpanSinkFlight: the bounded FlightRecorder ring (always-on "black
///    box" that the serving monitor dumps when an alert fires — see
///    obs/live.h).

#include <atomic>
#include <cstdint>

namespace tasti::obs {

/// Bits of the span-sink mask.
inline constexpr uint32_t kSpanSinkTrace = 1u;
inline constexpr uint32_t kSpanSinkFlight = 2u;

/// Process-wide observability configuration.
struct Config {
  std::atomic<uint32_t> span_sinks{0};
};

inline constinit Config g_config;

/// One relaxed load. Nonzero when any span sink (tracing or flight
/// recording) is active.
inline uint32_t SpanSinks() {
  return g_config.span_sinks.load(std::memory_order_relaxed);
}

inline bool TracingEnabled() { return (SpanSinks() & kSpanSinkTrace) != 0; }
inline bool FlightRecordingEnabled() {
  return (SpanSinks() & kSpanSinkFlight) != 0;
}

namespace internal {
/// Creates the global TraceRecorder if it does not exist yet; its creation
/// is trace time zero. Defined in trace.cc.
void StartTraceClock();
}  // namespace internal

/// Switching a span sink on starts the trace clock first, so every span
/// that records has a start at or after time zero (a span picks its sinks
/// when it opens).
inline void SetTracingEnabled(bool on) {
  if (on) {
    internal::StartTraceClock();
    g_config.span_sinks.fetch_or(kSpanSinkTrace, std::memory_order_relaxed);
  } else {
    g_config.span_sinks.fetch_and(~kSpanSinkTrace, std::memory_order_relaxed);
  }
}

inline void SetFlightRecordingEnabled(bool on) {
  if (on) {
    internal::StartTraceClock();
    g_config.span_sinks.fetch_or(kSpanSinkFlight, std::memory_order_relaxed);
  } else {
    g_config.span_sinks.fetch_and(~kSpanSinkFlight, std::memory_order_relaxed);
  }
}

inline void DisableAll() {
  SetTracingEnabled(false);
  SetFlightRecordingEnabled(false);
}

}  // namespace tasti::obs

#endif  // TASTI_OBS_CONFIG_H_
