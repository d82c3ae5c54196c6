#include "obs/live.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace tasti::obs {

namespace {
// Floor modulus: safe for negative slot indexes (a ManualClock may run
// from an arbitrary origin).
size_t RingPosition(int64_t index, size_t n) {
  const int64_t size = static_cast<int64_t>(n);
  return static_cast<size_t>(((index % size) + size) % size);
}
}  // namespace

// ---------------------------------------------------------------------------
// Clocks

SteadyClock::SteadyClock()
    : epoch_ns_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count()) {}

double SteadyClock::NowSeconds() const {
  const int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now().time_since_epoch())
                             .count();
  return static_cast<double>(now_ns - epoch_ns_) * 1e-9;
}

// ---------------------------------------------------------------------------
// SlidingQuantileSketch

std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count) {
  TASTI_CHECK(start > 0.0 && factor > 1.0, "bad exponential bucket spec");
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

double QuantileFromBuckets(const std::vector<double>& upper_bounds,
                           const uint64_t* bucket_counts, uint64_t count,
                           double q) {
  TASTI_CHECK(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  if (count == 0 || upper_bounds.empty()) return 0.0;
  const double rank = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (size_t i = 0; i < upper_bounds.size(); ++i) {
    const double in_bucket = static_cast<double>(bucket_counts[i]);
    if (cumulative + in_bucket >= rank && in_bucket > 0.0) {
      const double lower =
          i == 0 ? std::min(0.0, upper_bounds[0]) : upper_bounds[i - 1];
      const double fraction = (rank - cumulative) / in_bucket;
      return lower + fraction * (upper_bounds[i] - lower);
    }
    cumulative += in_bucket;
  }
  // Rank falls in the +inf overflow bucket: clamp to the last finite bound.
  return upper_bounds.back();
}

SlidingQuantileSketch::SlidingQuantileSketch(std::vector<double> upper_bounds,
                                             double slot_seconds,
                                             size_t num_slots)
    : upper_bounds_(std::move(upper_bounds)),
      slot_seconds_(slot_seconds),
      slots_(num_slots) {
  TASTI_CHECK(!upper_bounds_.empty(), "sketch needs at least one bound");
  TASTI_CHECK(std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()),
              "sketch bucket bounds must be increasing");
  TASTI_CHECK(slot_seconds_ > 0.0 && num_slots > 0, "bad sketch window spec");
  for (Slot& slot : slots_) slot.buckets.assign(upper_bounds_.size() + 1, 0);
}

int64_t SlidingQuantileSketch::SlotIndex(double now_seconds) const {
  return static_cast<int64_t>(std::floor(now_seconds / slot_seconds_));
}

void SlidingQuantileSketch::Observe(double value, double now_seconds) {
  const int64_t index = SlotIndex(now_seconds);
  const size_t bucket =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value) -
      upper_bounds_.begin();
  std::unique_lock<std::mutex> lock(mu_);
  Slot& slot = slots_[RingPosition(index, slots_.size())];
  if (slot.index != index) {
    // The ring position holds data from a previous rotation: reuse it.
    std::fill(slot.buckets.begin(), slot.buckets.end(), 0);
    slot.count = 0;
    slot.sum = 0.0;
    slot.index = index;
  }
  slot.buckets[bucket] += 1;
  slot.count += 1;
  slot.sum += value;
}

WindowSnapshot SlidingQuantileSketch::Snapshot(double now_seconds) const {
  const int64_t newest = SlotIndex(now_seconds);
  const int64_t oldest = newest - static_cast<int64_t>(slots_.size()) + 1;
  WindowSnapshot snap;
  snap.upper_bounds = upper_bounds_;
  snap.buckets.assign(upper_bounds_.size() + 1, 0);
  std::unique_lock<std::mutex> lock(mu_);
  for (const Slot& slot : slots_) {
    if (slot.index < oldest || slot.index > newest) continue;  // expired
    for (size_t b = 0; b < snap.buckets.size(); ++b) {
      snap.buckets[b] += slot.buckets[b];
    }
    snap.count += slot.count;
    snap.sum += slot.sum;
  }
  return snap;
}

// ---------------------------------------------------------------------------
// SloTracker

const char* SloObjectiveName(SloObjective objective) {
  switch (objective) {
    case SloObjective::kLatency:
      return "latency";
    case SloObjective::kErrors:
      return "errors";
    case SloObjective::kOracleBudget:
      return "oracle_budget";
    case SloObjective::kIndexDrift:
      return "index_drift";
  }
  return "unknown";
}

namespace {
// Slot count for the burn-rate windows: enough resolution that events age
// out smoothly, few enough that merges stay trivial.
constexpr size_t kBurnSlots = 30;
// Target fraction of queries within SloConfig::oracle_budget_per_query.
constexpr double kOracleBudgetTarget = 0.95;

size_t ObjectiveIdx(SloObjective objective) {
  return static_cast<size_t>(objective);
}
}  // namespace

void SloTracker::SlidingCounter::Init(double window_seconds,
                                      size_t num_slots) {
  slot_seconds = window_seconds / static_cast<double>(num_slots);
  slots.assign(num_slots, Slot{});
}

void SloTracker::SlidingCounter::Record(bool bad, double now_seconds) {
  const int64_t index =
      static_cast<int64_t>(std::floor(now_seconds / slot_seconds));
  Slot& slot = slots[RingPosition(index, slots.size())];
  if (slot.index != index) {
    slot.good = 0;
    slot.bad = 0;
    slot.index = index;
  }
  (bad ? slot.bad : slot.good) += 1;
}

void SloTracker::SlidingCounter::Totals(double now_seconds, uint64_t* good,
                                        uint64_t* bad) const {
  const int64_t newest =
      static_cast<int64_t>(std::floor(now_seconds / slot_seconds));
  const int64_t oldest = newest - static_cast<int64_t>(slots.size()) + 1;
  *good = 0;
  *bad = 0;
  for (const Slot& slot : slots) {
    if (slot.index < oldest || slot.index > newest) continue;
    *good += slot.good;
    *bad += slot.bad;
  }
}

SloTracker::SloTracker(SloConfig config) : config_(config) {
  TASTI_CHECK(config_.fast_window_seconds > 0.0 &&
                  config_.slow_window_seconds >= config_.fast_window_seconds,
              "SLO windows must be positive with slow >= fast");
  const auto enable = [&](SloObjective objective, double target) {
    Objective& state = objectives_[ObjectiveIdx(objective)];
    TASTI_CHECK(target > 0.0 && target < 1.0,
                "SLO target must be in (0, 1)");
    state.enabled = true;
    state.error_budget = 1.0 - target;
    state.fast.Init(config_.fast_window_seconds, kBurnSlots);
    state.slow.Init(config_.slow_window_seconds, kBurnSlots);
  };
  enable(SloObjective::kLatency, config_.latency_target);
  enable(SloObjective::kErrors, config_.error_target);
  if (config_.oracle_budget_per_query > 0.0) {
    enable(SloObjective::kOracleBudget, kOracleBudgetTarget);
  }
  // Drift events are epoch publishes — reuse the error target as budget.
  enable(SloObjective::kIndexDrift, config_.error_target);
}

void SloTracker::RecordQuery(double now_seconds, double latency_ms, bool ok,
                             uint64_t oracle_invocations) {
  std::unique_lock<std::mutex> lock(mu_);
  RecordLocked(SloObjective::kLatency,
               latency_ms > config_.latency_threshold_ms, now_seconds);
  RecordLocked(SloObjective::kErrors, !ok, now_seconds);
  if (objectives_[ObjectiveIdx(SloObjective::kOracleBudget)].enabled) {
    RecordLocked(SloObjective::kOracleBudget,
                 static_cast<double>(oracle_invocations) >
                     config_.oracle_budget_per_query,
                 now_seconds);
  }
}

void SloTracker::RecordEvent(SloObjective objective, bool bad,
                             double now_seconds) {
  std::unique_lock<std::mutex> lock(mu_);
  RecordLocked(objective, bad, now_seconds);
}

void SloTracker::RecordLocked(SloObjective objective, bool bad,
                              double now_seconds) {
  Objective& state = objectives_[ObjectiveIdx(objective)];
  if (!state.enabled) return;
  state.fast.Record(bad, now_seconds);
  state.slow.Record(bad, now_seconds);
  if (bad) EvaluateLocked(objective, now_seconds);
}

BurnRates SloTracker::BurnLocked(const Objective& state,
                                 double now_seconds) const {
  BurnRates burn;
  uint64_t good = 0, bad = 0;
  state.fast.Totals(now_seconds, &good, &bad);
  burn.fast_events = good + bad;
  if (burn.fast_events > 0) {
    burn.fast = (static_cast<double>(bad) /
                 static_cast<double>(burn.fast_events)) /
                state.error_budget;
  }
  state.slow.Totals(now_seconds, &good, &bad);
  burn.slow_events = good + bad;
  if (burn.slow_events > 0) {
    burn.slow = (static_cast<double>(bad) /
                 static_cast<double>(burn.slow_events)) /
                state.error_budget;
  }
  return burn;
}

void SloTracker::EvaluateLocked(SloObjective objective, double now_seconds) {
  Objective& state = objectives_[ObjectiveIdx(objective)];
  const BurnRates burn = BurnLocked(state, now_seconds);
  if (burn.fast_events < config_.min_events) return;
  if (burn.fast < config_.burn_rate_threshold ||
      burn.slow < config_.burn_rate_threshold) {
    return;
  }
  if (state.last_alert_seconds >= 0.0 &&
      now_seconds - state.last_alert_seconds <
          config_.alert_cooldown_seconds) {
    return;
  }
  state.last_alert_seconds = now_seconds;
  Alert alert;
  alert.objective = objective;
  alert.fired_at_seconds = now_seconds;
  alert.burn_fast = burn.fast;
  alert.burn_slow = burn.slow;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "slo burn: objective=%s fast=%.2fx slow=%.2fx threshold=%.2fx",
                SloObjectiveName(objective), burn.fast, burn.slow,
                config_.burn_rate_threshold);
  alert.message = buf;
  pending_.push_back(std::move(alert));
  alerts_raised_ += 1;
}

BurnRates SloTracker::Burn(SloObjective objective, double now_seconds) const {
  std::unique_lock<std::mutex> lock(mu_);
  return BurnLocked(objectives_[ObjectiveIdx(objective)], now_seconds);
}

std::vector<Alert> SloTracker::TakeAlerts() {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<Alert> out;
  out.swap(pending_);
  return out;
}

uint64_t SloTracker::alerts_raised() const {
  std::unique_lock<std::mutex> lock(mu_);
  return alerts_raised_;
}

// ---------------------------------------------------------------------------
// FlightRecorder

namespace {
std::atomic<uint64_t> g_next_flight_id{1};

thread_local uint64_t t_cached_flight_id = 0;
thread_local void* t_cached_ring = nullptr;
}  // namespace

FlightRecorder::FlightRecorder(size_t capacity_per_thread)
    : capacity_(capacity_per_thread),
      recorder_id_(g_next_flight_id.fetch_add(1, std::memory_order_relaxed)) {
  TASTI_CHECK(capacity_ > 0, "flight recorder needs a positive capacity");
}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder& FlightRecorder::Global() {
  // Leaked deliberately, matching TraceRecorder::Global().
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::Ring* FlightRecorder::RingForThisThread() {
  if (t_cached_flight_id == recorder_id_) {
    return static_cast<Ring*>(t_cached_ring);
  }
  const std::thread::id self = std::this_thread::get_id();
  std::unique_lock<std::mutex> lock(mu_);
  Ring* ring = nullptr;
  for (const auto& existing : rings_) {
    if (existing->owner == self) {
      ring = existing.get();
      break;
    }
  }
  if (ring == nullptr) {
    rings_.push_back(std::make_unique<Ring>());
    ring = rings_.back().get();
    ring->owner = self;
    ring->tid = next_tid_++;
    ring->events.reserve(capacity_);
  }
  // Cache only for the global recorder (its rings are never freed); test
  // instances take the registry walk every time.
  if (this == &Global()) {
    t_cached_flight_id = recorder_id_;
    t_cached_ring = ring;
  }
  return ring;
}

void FlightRecorder::Record(const char* name, int64_t ts_us, int64_t dur_us) {
  Ring* ring = RingForThisThread();
  std::unique_lock<std::mutex> lock(ring->mu);
  const TraceEvent event{name, ts_us, dur_us, ring->tid};
  if (ring->events.size() < capacity_) {
    ring->events.push_back(event);
  } else {
    ring->events[ring->next] = event;
  }
  ring->next = (ring->next + 1) % capacity_;
}

std::vector<TraceEvent> FlightRecorder::Snapshot() const {
  std::vector<TraceEvent> merged;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (const auto& ring : rings_) {
      std::unique_lock<std::mutex> ring_lock(ring->mu);
      merged.insert(merged.end(), ring->events.begin(), ring->events.end());
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;  // parents before children
            });
  return merged;
}

size_t FlightRecorder::event_count() const {
  std::unique_lock<std::mutex> lock(mu_);
  size_t count = 0;
  for (const auto& ring : rings_) {
    std::unique_lock<std::mutex> ring_lock(ring->mu);
    count += ring->events.size();
  }
  return count;
}

void FlightRecorder::Clear() {
  std::unique_lock<std::mutex> lock(mu_);
  for (const auto& ring : rings_) {
    std::unique_lock<std::mutex> ring_lock(ring->mu);
    ring->events.clear();
    ring->next = 0;
  }
}

std::string FlightRecorder::ToChromeJson(const std::string& reason) const {
  const std::vector<TraceEvent> events = Snapshot();
  std::string out;
  out.reserve(events.size() * 160 + 256);
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  // Instant metadata event first: names the dump trigger so a directory
  // of flight dumps is self-describing.
  out += "  {\"name\": \"flight.dump\", \"cat\": \"tasti\", \"ph\": \"i\", "
         "\"ts\": 0, \"s\": \"g\", \"pid\": 1, \"tid\": 0, \"args\": "
         "{\"reason\": \"";
  internal::AppendJsonEscaped(reason.c_str(), &out);
  out += "\"}}";

  // Ring truncation can orphan a child span's parent, so "X" events are
  // the wrong shape here; instead each span becomes an explicit B/E pair,
  // reconstructed per thread. Within a thread RAII spans nest properly,
  // and the snapshot is (ts asc, dur desc)-sorted, so a stack walk emits
  // well-formed pairs in timestamp order.
  char line[192];
  const auto emit = [&](char ph, const char* name, int64_t ts, uint32_t tid) {
    out += ",\n  {\"name\": \"";
    internal::AppendJsonEscaped(name, &out);
    std::snprintf(line, sizeof(line),
                  "\", \"cat\": \"tasti\", \"ph\": \"%c\", \"ts\": %lld, "
                  "\"pid\": 1, \"tid\": %u}",
                  ph, static_cast<long long>(ts), tid);
    out += line;
  };
  std::vector<uint32_t> tids;
  for (const TraceEvent& event : events) {
    if (std::find(tids.begin(), tids.end(), event.tid) == tids.end()) {
      tids.push_back(event.tid);
    }
  }
  std::sort(tids.begin(), tids.end());
  struct Open {
    const char* name;
    int64_t end_us;
    uint32_t tid;
  };
  for (uint32_t tid : tids) {
    std::vector<Open> stack;
    for (const TraceEvent& event : events) {
      if (event.tid != tid) continue;
      while (!stack.empty() && stack.back().end_us <= event.ts_us) {
        emit('E', stack.back().name, stack.back().end_us, tid);
        stack.pop_back();
      }
      emit('B', event.name, event.ts_us, tid);
      stack.push_back(Open{event.name, event.ts_us + event.dur_us, tid});
    }
    while (!stack.empty()) {
      emit('E', stack.back().name, stack.back().end_us, tid);
      stack.pop_back();
    }
  }
  out += "\n]}\n";
  return out;
}

Status FlightRecorder::Dump(const std::string& path,
                            const std::string& reason) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const std::string json = ToChromeJson(reason);
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) return Status::IOError("short write to " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Exposition

namespace {

void AppendLabelEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    if (c == '\\' || c == '"') {
      out->push_back('\\');
      out->push_back(c);
    } else if (c == '\n') {
      out->append("\\n");
    } else {
      out->push_back(c);
    }
  }
}

std::string FmtValue(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void AppendLabels(
    const std::vector<std::pair<std::string, std::string>>& labels,
    std::string* out) {
  if (labels.empty()) return;
  out->push_back('{');
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out->push_back(',');
    *out += labels[i].first;
    *out += "=\"";
    AppendLabelEscaped(labels[i].second, out);
    out->push_back('"');
  }
  out->push_back('}');
}

}  // namespace

std::string WriteExposition(const LiveStats& live) {
  // Samples grouped by family, families in order of first appearance: the
  // format wants each family's samples contiguous under one TYPE line, and
  // merged inputs (one LiveStats per shard monitor) interleave them.
  std::vector<std::string> families;
  std::unordered_map<std::string, std::vector<const LiveSample*>> by_family;
  for (const LiveSample& sample : live.samples) {
    auto [it, inserted] = by_family.try_emplace(sample.name);
    if (inserted) families.push_back(sample.name);
    it->second.push_back(&sample);
  }
  std::string out;
  for (const std::string& family : families) {
    const std::vector<const LiveSample*>& samples = by_family[family];
    // The family's first sample names its type and help.
    const LiveSample& first = *samples.front();
    if (!first.help.empty()) {
      out += "# HELP " + family + " " + first.help + "\n";
    }
    out += "# TYPE " + family +
           (first.type == 'c' ? " counter\n" : " gauge\n");
    for (const LiveSample* sample : samples) {
      out += family;
      AppendLabels(sample->labels, &out);
      out += " " + FmtValue(sample->value) + "\n";
    }
  }
  return out;
}

Status WriteExpositionFile(const LiveStats& live, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const std::string text = WriteExposition(live);
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) return Status::IOError("short write to " + path);
  return Status::OK();
}

}  // namespace tasti::obs
