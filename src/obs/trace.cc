#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>

#include "obs/live.h"

namespace tasti::obs {

namespace {

// Monotonic recorder ids let the thread-local buffer cache detect a stale
// pointer even if a destroyed recorder's address is reused.
std::atomic<uint64_t> g_next_recorder_id{1};

thread_local uint64_t t_cached_recorder_id = 0;
thread_local void* t_cached_buffer = nullptr;

}  // namespace

TraceRecorder::TraceRecorder()
    : recorder_id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder& TraceRecorder::Global() {
  // Leaked deliberately: pool workers may record during static teardown.
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

namespace internal {
void StartTraceClock() { TraceRecorder::Global(); }
}  // namespace internal

int64_t TraceRecorder::NowMicros() const {
  return ToMicros(std::chrono::steady_clock::now());
}

int64_t TraceRecorder::ToMicros(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
      .count();
}

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  if (t_cached_recorder_id == recorder_id_) {
    return static_cast<ThreadBuffer*>(t_cached_buffer);
  }
  const std::thread::id self = std::this_thread::get_id();
  std::unique_lock<std::mutex> lock(mu_);
  ThreadBuffer* buffer = nullptr;
  for (const auto& existing : buffers_) {
    if (existing->owner == self) {
      buffer = existing.get();
      break;
    }
  }
  if (buffer == nullptr) {
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
    buffer->owner = self;
    buffer->tid = next_tid_++;
  }
  // Cache only for the global recorder: its buffers are never freed, so
  // the cached pointer can never dangle. Short-lived test recorders take
  // the slow path (and allocate one buffer per recording thread).
  if (this == &Global()) {
    t_cached_recorder_id = recorder_id_;
    t_cached_buffer = buffer;
  }
  return buffer;
}

void TraceRecorder::Record(const char* name, int64_t ts_us, int64_t dur_us) {
  ThreadBuffer* buffer = BufferForThisThread();
  std::unique_lock<std::mutex> lock(buffer->mu);
  buffer->events.push_back(TraceEvent{name, ts_us, dur_us, buffer->tid});
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  std::vector<TraceEvent> merged;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      std::unique_lock<std::mutex> buffer_lock(buffer->mu);
      merged.insert(merged.end(), buffer->events.begin(), buffer->events.end());
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;  // parents before children
            });
  return merged;
}

size_t TraceRecorder::event_count() const {
  std::unique_lock<std::mutex> lock(mu_);
  size_t count = 0;
  for (const auto& buffer : buffers_) {
    std::unique_lock<std::mutex> buffer_lock(buffer->mu);
    count += buffer->events.size();
  }
  return count;
}

void TraceRecorder::Clear() {
  std::unique_lock<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    std::unique_lock<std::mutex> buffer_lock(buffer->mu);
    buffer->events.clear();
  }
  epoch_ = std::chrono::steady_clock::now();
}

int64_t SpanTotals::Nanos(const char* name) const {
  for (size_t i = 0; i < count_; ++i) {
    if (std::strcmp(totals_[i].name, name) == 0) return totals_[i].nanos;
  }
  return 0;
}

void SpanTotals::Add(const char* name, int64_t nanos) {
  for (size_t i = 0; i < count_; ++i) {
    if (totals_[i].name == name || std::strcmp(totals_[i].name, name) == 0) {
      totals_[i].nanos += nanos;
      return;
    }
  }
  if (count_ < kMaxNames) totals_[count_++] = Total{name, nanos};
}

void Span::Finish() {
  const std::chrono::steady_clock::time_point end =
      std::chrono::steady_clock::now();
  if (SpanTotals* totals = internal::t_span_totals) {
    totals->Add(name_, std::chrono::duration_cast<std::chrono::nanoseconds>(
                           end - start_)
                           .count());
  }
  if (sinks_ == 0) return;
  TraceRecorder& global = TraceRecorder::Global();
  const int64_t start_us = global.ToMicros(start_);
  const int64_t dur_us = global.ToMicros(end) - start_us;
  if ((sinks_ & kSpanSinkTrace) != 0) {
    global.Record(name_, start_us, dur_us);
  }
  if ((sinks_ & kSpanSinkFlight) != 0) {
    FlightRecorder::Global().Record(name_, start_us, dur_us);
  }
}

namespace internal {
// Span names are static identifiers (module.phase); escaping covers the
// JSON specials anyway so a stray name cannot corrupt the file.
void AppendJsonEscaped(const char* s, std::string* out) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\u%04x", c);
      out->append(hex);
    } else {
      out->push_back(c);
    }
  }
}
}  // namespace internal

using internal::AppendJsonEscaped;

std::string TraceRecorder::ToJson() const {
  const std::vector<TraceEvent> events = Snapshot();
  std::string out;
  out.reserve(events.size() * 96 + 64);
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char line[160];
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    out += "  {\"name\": \"";
    AppendJsonEscaped(event.name, &out);
    std::snprintf(line, sizeof(line),
                  "\", \"cat\": \"tasti\", \"ph\": \"X\", \"ts\": %lld, "
                  "\"dur\": %lld, \"pid\": 1, \"tid\": %u}%s\n",
                  static_cast<long long>(event.ts_us),
                  static_cast<long long>(event.dur_us), event.tid,
                  i + 1 < events.size() ? "," : "");
    out += line;
  }
  out += "]}\n";
  return out;
}

Status TraceRecorder::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) return Status::IOError("short write to " + path);
  return Status::OK();
}

}  // namespace tasti::obs
