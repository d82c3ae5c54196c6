#include "serve/shedder.h"

#include <algorithm>

namespace tasti::serve {

// EWMA smoothing factor for the observed per-query service time.
constexpr double kEwmaAlpha = 0.2;

const char* QueryPriorityName(QueryPriority priority) {
  switch (priority) {
    case QueryPriority::kInteractive:
      return "interactive";
    case QueryPriority::kBatch:
      return "batch";
    case QueryPriority::kBestEffort:
      return "best_effort";
  }
  return "unknown";
}

LoadShedder::LoadShedder(ShedderOptions options)
    : options_(options), ewma_service_ms_(options.initial_service_ms) {}

double LoadShedder::ThresholdFor(QueryPriority priority) const {
  double multiplier = options_.best_effort_multiplier;
  switch (priority) {
    case QueryPriority::kInteractive:
      multiplier = options_.interactive_multiplier;
      break;
    case QueryPriority::kBatch:
      multiplier = options_.batch_multiplier;
      break;
    case QueryPriority::kBestEffort:
      multiplier = options_.best_effort_multiplier;
      break;
  }
  return options_.target_wait_ms * multiplier;
}

ShedDecision LoadShedder::Admit(QueryPriority priority, size_t depth) {
  ShedDecision decision;
  if (!options_.enabled) return decision;
  std::lock_guard<std::mutex> lock(mu_);
  decision.estimated_wait_ms = static_cast<double>(depth) * ewma_service_ms_;
  double threshold = ThresholdFor(priority);
  if (overloaded_) {
    // Sustained overload: drop best-effort outright and halve the batch
    // threshold so the lower classes drain the queue for interactive.
    if (priority == QueryPriority::kBestEffort) threshold = 0.0;
    if (priority == QueryPriority::kBatch) threshold *= 0.5;
  }
  // An idle server always admits — shedding exists to bound queue wait,
  // not to refuse work there is capacity for.
  decision.admit =
      depth == 0 || (decision.estimated_wait_ms <= threshold &&
                     !(overloaded_ && priority == QueryPriority::kBestEffort));
  if (decision.admit) {
    ++stats_.admitted;
  } else {
    decision.retry_after_ms = std::max(
        options_.interval_ms, decision.estimated_wait_ms - threshold);
    ++stats_.shed_total;
    ++stats_.shed_by_class[static_cast<size_t>(priority)];
  }
  return decision;
}

void LoadShedder::OnQueryDone(double queue_wait_ms, double service_ms,
                              double now_ms) {
  if (!options_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  ewma_service_ms_ = (1.0 - kEwmaAlpha) * ewma_service_ms_ +
                     kEwmaAlpha * std::max(0.0, service_ms);
  if (queue_wait_ms > options_.target_wait_ms) {
    if (above_target_since_ms_ < 0) above_target_since_ms_ = now_ms;
    if (!overloaded_ &&
        now_ms - above_target_since_ms_ >= options_.interval_ms) {
      overloaded_ = true;
      ++stats_.overload_entries;
    }
  } else {
    // Any wait back at or below target ends the streak (CoDel-style:
    // the queue has drained to an acceptable standing delay).
    above_target_since_ms_ = -1.0;
    overloaded_ = false;
  }
}

ShedderStats LoadShedder::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ShedderStats out = stats_;
  out.overloaded = overloaded_;
  out.ewma_service_ms = ewma_service_ms_;
  return out;
}

}  // namespace tasti::serve
