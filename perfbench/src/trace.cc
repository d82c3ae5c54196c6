#include "trace.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last. One tracer records at a
// time, so the stack needs no per-tracer key.
thread_local std::vector<int64_t> open_spans;

bool IsStructural(const std::string& name) {
  return name.rfind("bench.", 0) == 0;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Tracer::Begin(const char* name, uint64_t query_id) {
  if (!enabled_) return -1;
  const uint64_t tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
  Span span;
  span.name = name;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.query_id = query_id;
  int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint32_t number = 0;
    while (number < thread_ids_.size() && thread_ids_[number] != tid) ++number;
    if (number == thread_ids_.size()) thread_ids_.push_back(tid);
    span.thread = number;
    span.start_ns = NowNs();
    index = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(span));
  }
  open_spans.push_back(index);
  return index;
}

void Tracer::End(int64_t index) {
  const int64_t now = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].end_ns = now;
  }
  if (!open_spans.empty() && open_spans.back() == index) open_spans.pop_back();
}

void Tracer::SetQueryId(int64_t index, uint64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].query_id = query_id;
}

double Tracer::TotalSeconds(const std::string& name) const {
  int64_t ns = 0;
  for (const Span& span : spans_) {
    if (span.name == name) ns += span.end_ns - span.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

size_t Tracer::Count(const std::string& name) const {
  size_t count = 0;
  for (const Span& span : spans_) count += span.name == name ? 1 : 0;
  return count;
}

double Tracer::SelfSeconds(const std::string& prefix) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  int64_t ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name.rfind(prefix, 0) == 0) {
      ns += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::UnaccountedFraction() const {
  const double window = TotalSeconds("bench.window");
  if (window <= 0.0) return 0.0;
  int64_t layer_ns = 0;
  for (const Span& span : spans_) {
    if (IsStructural(span.name)) continue;
    if (span.parent >= 0 &&
        !IsStructural(spans_[static_cast<size_t>(span.parent)].name)) {
      continue;  // nested inside another layer span: already counted
    }
    layer_ns += span.end_ns - span.start_ns;
  }
  return 1.0 - static_cast<double>(layer_ns) * 1e-9 / window;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& metadata_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = 0;
  for (const Span& span : spans_) {
    if (origin == 0 || span.start_ns < origin) origin = span.start_ns;
  }
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"query_id\":%llu}}",
                 i == 0 ? "" : ",", span.name.c_str(), span.thread,
                 static_cast<double>(span.start_ns - origin) * 1e-3,
                 static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.query_id));
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\",\"metadata\":%s}\n",
               metadata_json.c_str());
  return std::fclose(f) == 0;
}

}  // namespace perfbench
