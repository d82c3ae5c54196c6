#include "labeler/faults.h"

#include <cstdlib>
#include <utility>
#include <variant>

#include "obs/trace.h"
#include "util/random.h"

namespace tasti::labeler {

namespace {

/// Deterministic uniform draw in [0, 1) from a tuple of identifiers.
double HashDraw(uint64_t seed, uint64_t a, uint64_t b, uint64_t salt) {
  uint64_t state = seed ^ (a * 0x9E3779B97F4A7C15ULL) ^
                   (b * 0xC2B2AE3D27D4EB4FULL) ^ (salt * 0x165667B19E3779F9ULL);
  uint64_t h = SplitMix64(&state);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

Result<double> ParseRate(const std::string& key, const std::string& value) {
  char* end = nullptr;
  double rate = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || rate < 0.0 || rate > 1.0) {
    return Status::InvalidArgument("fault schedule: bad rate for '" + key +
                                   "': " + value);
  }
  return rate;
}

Result<uint64_t> ParseCount(const std::string& key, const std::string& value) {
  char* end = nullptr;
  unsigned long long n = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("fault schedule: bad count for '" + key +
                                   "': " + value);
  }
  return static_cast<uint64_t>(n);
}

/// Splits "A:B" into its two halves; returns false if there is no colon.
bool SplitPair(const std::string& value, std::string* a, std::string* b) {
  size_t colon = value.find(':');
  if (colon == std::string::npos) return false;
  *a = value.substr(0, colon);
  *b = value.substr(colon + 1);
  return true;
}

}  // namespace

Result<FaultSchedule> ParseFaultSchedule(const std::string& spec) {
  FaultSchedule schedule;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;

    size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault schedule: expected key=value, got '" +
                                     item + "'");
    }
    std::string key = item.substr(0, eq);
    std::string value = item.substr(eq + 1);

    if (key == "transient") {
      auto r = ParseRate(key, value);
      TASTI_RETURN_NOT_OK(r.status());
      schedule.transient_rate = *r;
    } else if (key == "timeout") {
      auto r = ParseRate(key, value);
      TASTI_RETURN_NOT_OK(r.status());
      schedule.timeout_rate = *r;
    } else if (key == "corrupt") {
      auto r = ParseRate(key, value);
      TASTI_RETURN_NOT_OK(r.status());
      schedule.corrupt_rate = *r;
    } else if (key == "perm-rate") {
      auto r = ParseRate(key, value);
      TASTI_RETURN_NOT_OK(r.status());
      schedule.permanent_rate = *r;
    } else if (key == "throttle") {
      std::string period, burst;
      if (!SplitPair(value, &period, &burst)) {
        return Status::InvalidArgument(
            "fault schedule: throttle wants PERIOD:BURST, got '" + value + "'");
      }
      auto p = ParseCount(key, period);
      TASTI_RETURN_NOT_OK(p.status());
      auto b = ParseCount(key, burst);
      TASTI_RETURN_NOT_OK(b.status());
      if (*p > 0 && *b > *p) {
        return Status::InvalidArgument(
            "fault schedule: throttle burst exceeds period");
      }
      schedule.throttle_period = static_cast<size_t>(*p);
      schedule.throttle_burst = static_cast<size_t>(*b);
    } else if (key == "crash") {
      std::string begin, length;
      if (!SplitPair(value, &begin, &length)) {
        return Status::InvalidArgument(
            "fault schedule: crash wants BEGIN:LENGTH, got '" + value + "'");
      }
      auto b = ParseCount(key, begin);
      TASTI_RETURN_NOT_OK(b.status());
      auto l = ParseCount(key, length);
      TASTI_RETURN_NOT_OK(l.status());
      schedule.crash_windows.push_back(
          CrashWindow{static_cast<size_t>(*b), static_cast<size_t>(*b + *l)});
    } else if (key == "perm") {
      size_t start = 0;
      while (start <= value.size()) {
        size_t semi = value.find(';', start);
        if (semi == std::string::npos) semi = value.size();
        std::string idx = value.substr(start, semi - start);
        start = semi + 1;
        if (idx.empty()) continue;
        auto i = ParseCount(key, idx);
        TASTI_RETURN_NOT_OK(i.status());
        schedule.permanent_failures.push_back(static_cast<size_t>(*i));
      }
    } else if (key == "latency") {
      char* end = nullptr;
      schedule.base_latency_ms = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || schedule.base_latency_ms < 0) {
        return Status::InvalidArgument("fault schedule: bad latency: " + value);
      }
    } else if (key == "timeout-latency") {
      char* end = nullptr;
      schedule.timeout_latency_ms = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' ||
          schedule.timeout_latency_ms < 0) {
        return Status::InvalidArgument("fault schedule: bad timeout-latency: " +
                                       value);
      }
    } else if (key == "seed") {
      auto s = ParseCount(key, value);
      TASTI_RETURN_NOT_OK(s.status());
      schedule.seed = *s;
    } else {
      return Status::InvalidArgument("fault schedule: unknown key '" + key + "'");
    }
  }
  return schedule;
}

FaultInjectingLabeler::FaultInjectingLabeler(TargetLabeler* inner,
                                             FaultSchedule schedule)
    : inner_(inner), schedule_(std::move(schedule)) {
  TASTI_CHECK(inner != nullptr, "FaultInjectingLabeler requires an inner labeler");
  record_attempts_.assign(inner->num_records(), 0);
}

void FaultInjectingLabeler::set_schedule(FaultSchedule schedule) {
  schedule_ = std::move(schedule);
}

bool FaultInjectingLabeler::IsPermanentlyFailed(size_t index) const {
  for (size_t failed : schedule_.permanent_failures) {
    if (failed == index) return true;
  }
  if (schedule_.permanent_rate > 0.0 &&
      HashDraw(schedule_.seed, index, 0, /*salt=*/1) < schedule_.permanent_rate) {
    return true;
  }
  return false;
}

data::LabelerOutput FaultInjectingLabeler::CorruptLabel(size_t index,
                                                        size_t attempt) const {
  // The oracle ran but produced garbage: keep the modality, scramble the
  // payload deterministically in (seed, record, attempt).
  data::LabelerOutput truth = inner_->Label(index);
  uint64_t mix = schedule_.seed ^ (index * 0x9E3779B97F4A7C15ULL) ^
                 (attempt * 0xC2B2AE3D27D4EB4FULL);
  Rng rng(SplitMix64(&mix));
  if (std::holds_alternative<data::VideoLabel>(truth)) {
    data::VideoLabel garbage;
    const int boxes = static_cast<int>(rng.UniformInt(uint64_t{9}));
    for (int i = 0; i < boxes; ++i) {
      data::Box box;
      box.cls = static_cast<data::ObjectClass>(rng.UniformInt(uint64_t{4}));
      box.x = static_cast<float>(rng.Uniform());
      box.y = static_cast<float>(rng.Uniform());
      box.w = static_cast<float>(rng.Uniform(0.02, 0.4));
      box.h = static_cast<float>(rng.Uniform(0.02, 0.4));
      garbage.boxes.push_back(box);
    }
    return garbage;
  }
  if (std::holds_alternative<data::TextLabel>(truth)) {
    data::TextLabel garbage;
    garbage.op = static_cast<data::SqlOp>(
        rng.UniformInt(static_cast<uint64_t>(data::kNumSqlOps)));
    garbage.num_predicates = static_cast<int>(rng.UniformInt(uint64_t{5}));
    return garbage;
  }
  data::SpeechLabel garbage;
  garbage.gender = rng.Bernoulli(0.5) ? data::Gender::kFemale : data::Gender::kMale;
  garbage.age_years = static_cast<int>(rng.UniformInt(int64_t{10}, int64_t{90}));
  return garbage;
}

Result<data::LabelerOutput> FaultInjectingLabeler::TryLabel(size_t index) {
  TASTI_CHECK(index < record_attempts_.size(), "label index out of range");
  const size_t global_attempt = attempts_++;
  const size_t record_attempt = record_attempts_[index]++;
  last_latency_ms_ = schedule_.base_latency_ms;

  if (IsPermanentlyFailed(index)) {
    ++counts_.permanent;
    return Status::FailedPrecondition("oracle: record " +
                                      std::to_string(index) +
                                      " permanently unlabelable");
  }
  for (const CrashWindow& window : schedule_.crash_windows) {
    if (global_attempt >= window.begin && global_attempt < window.end) {
      ++counts_.crash;
      return Status::Unavailable("oracle: crashed (attempt " +
                                 std::to_string(global_attempt) + ")");
    }
  }
  if (schedule_.throttle_period > 0 &&
      global_attempt % schedule_.throttle_period < schedule_.throttle_burst) {
    ++counts_.throttle;
    return Status::ResourceExhausted("oracle: throttled (attempt " +
                                     std::to_string(global_attempt) + ")");
  }
  if (schedule_.transient_rate > 0.0 &&
      HashDraw(schedule_.seed, index, record_attempt, /*salt=*/2) <
          schedule_.transient_rate) {
    ++counts_.transient;
    return Status::Unavailable("oracle: transient failure on record " +
                               std::to_string(index));
  }
  if (schedule_.timeout_rate > 0.0 &&
      HashDraw(schedule_.seed, index, record_attempt, /*salt=*/3) <
          schedule_.timeout_rate) {
    ++counts_.timeout;
    last_latency_ms_ = schedule_.timeout_latency_ms;
    return Status::DeadlineExceeded("oracle: deadline exceeded on record " +
                                    std::to_string(index));
  }
  if (schedule_.corrupt_rate > 0.0 &&
      HashDraw(schedule_.seed, index, record_attempt, /*salt=*/4) <
          schedule_.corrupt_rate) {
    ++counts_.corrupt;
    return CorruptLabel(index, record_attempt);
  }
  return inner_->Label(index);
}

}  // namespace tasti::labeler
