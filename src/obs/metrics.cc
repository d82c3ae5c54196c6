#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

namespace tasti::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      buckets_(upper_bounds_.size() + 1) {
  TASTI_CHECK(std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()),
              "histogram bucket bounds must be increasing");
}

void Histogram::Observe(double value) {
  const size_t bucket =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value) -
      upper_bounds_.begin();
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // No atomic fetch_add for double pre-C++20 on all targets; CAS loop.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::Quantile(double q) const {
  std::vector<uint64_t> counts(buckets_.size());
  uint64_t total = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  // Recompute the total from the bucket loads rather than trusting count_:
  // during a live workload the two are updated non-atomically.
  return QuantileFromBuckets(upper_bounds_, counts.data(), total, q);
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

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

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked deliberately: pool workers may update instruments during
  // static teardown.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrNull(const std::string& name) {
  for (const auto& entry : entries_) {
    if (entry->name == name) return entry.get();
  }
  return nullptr;
}

Counter* MetricsRegistry::counter(const std::string& name,
                                  const std::string& unit) {
  std::unique_lock<std::mutex> lock(mu_);
  if (Entry* existing = FindOrNull(name)) {
    TASTI_CHECK(existing->kind == Kind::kCounter,
                "metric registered with a different type: " + name);
    return existing->counter.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->unit = unit;
  entry->kind = Kind::kCounter;
  entry->counter = std::make_unique<Counter>();
  Counter* out = entry->counter.get();
  entries_.push_back(std::move(entry));
  return out;
}

Gauge* MetricsRegistry::gauge(const std::string& name, const std::string& unit) {
  std::unique_lock<std::mutex> lock(mu_);
  if (Entry* existing = FindOrNull(name)) {
    TASTI_CHECK(existing->kind == Kind::kGauge,
                "metric registered with a different type: " + name);
    return existing->gauge.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->unit = unit;
  entry->kind = Kind::kGauge;
  entry->gauge = std::make_unique<Gauge>();
  Gauge* out = entry->gauge.get();
  entries_.push_back(std::move(entry));
  return out;
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds,
                                      const std::string& unit) {
  std::unique_lock<std::mutex> lock(mu_);
  if (Entry* existing = FindOrNull(name)) {
    TASTI_CHECK(existing->kind == Kind::kHistogram,
                "metric registered with a different type: " + name);
    return existing->histogram.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->unit = unit;
  entry->kind = Kind::kHistogram;
  entry->histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  Histogram* out = entry->histogram.get();
  entries_.push_back(std::move(entry));
  return out;
}

void MetricsRegistry::ResetAll() {
  std::unique_lock<std::mutex> lock(mu_);
  for (const auto& entry : entries_) {
    switch (entry->kind) {
      case Kind::kCounter:
        entry->counter->Reset();
        break;
      case Kind::kGauge:
        entry->gauge->Reset();
        break;
      case Kind::kHistogram:
        entry->histogram->Reset();
        break;
    }
  }
}

std::vector<MetricSample> MetricsRegistry::Samples() const {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<MetricSample> samples;
  samples.reserve(entries_.size());
  for (const auto& entry : entries_) {
    MetricSample sample;
    sample.name = entry->name;
    sample.unit = entry->unit;
    switch (entry->kind) {
      case Kind::kCounter:
        sample.kind = 'c';
        sample.value = static_cast<double>(entry->counter->value());
        break;
      case Kind::kGauge:
        sample.kind = 'g';
        sample.value = entry->gauge->value();
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry->histogram;
        sample.kind = 'h';
        sample.count = h.count();
        sample.sum = h.sum();
        sample.upper_bounds = h.upper_bounds();
        sample.bucket_counts.resize(h.num_buckets());
        for (size_t b = 0; b < h.num_buckets(); ++b) {
          sample.bucket_counts[b] = h.bucket_count(b);
        }
        break;
      }
    }
    samples.push_back(std::move(sample));
  }
  std::sort(samples.begin(), samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return samples;
}

namespace {
void AppendEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

// %g keeps integral values integral ("16" not "16.000000") and stays
// round-trippable for the snapshot's consumers.
std::string FmtDouble(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}
}  // namespace

std::string MetricsRegistry::ToJson() const {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<const Entry*> sorted;
  sorted.reserve(entries_.size());
  for (const auto& entry : entries_) sorted.push_back(entry.get());
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry* a, const Entry* b) { return a->name < b->name; });

  std::string out = "[\n";
  for (size_t i = 0; i < sorted.size(); ++i) {
    const Entry& entry = *sorted[i];
    out += "  {\"metric\": \"";
    AppendEscaped(entry.name, &out);
    out += "\", \"unit\": \"";
    AppendEscaped(entry.unit, &out);
    out += "\", ";
    switch (entry.kind) {
      case Kind::kCounter:
        out += "\"type\": \"counter\", \"value\": " +
               std::to_string(entry.counter->value());
        break;
      case Kind::kGauge:
        out += "\"type\": \"gauge\", \"value\": " +
               FmtDouble(entry.gauge->value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        out += "\"type\": \"histogram\", \"count\": " +
               std::to_string(h.count()) + ", \"sum\": " + FmtDouble(h.sum()) +
               ", \"buckets\": [";
        for (size_t b = 0; b < h.num_buckets(); ++b) {
          if (b > 0) out += ", ";
          out += "{\"le\": ";
          out += b < h.upper_bounds().size()
                     ? FmtDouble(h.upper_bounds()[b])
                     : std::string("\"inf\"");
          out += ", \"count\": " + std::to_string(h.bucket_count(b)) + "}";
        }
        out += "]";
        break;
      }
    }
    out += i + 1 < sorted.size() ? "},\n" : "}\n";
  }
  out += "]\n";
  return out;
}

Status MetricsRegistry::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) return Status::IOError("short write to " + path);
  return Status::OK();
}

}  // namespace tasti::obs
