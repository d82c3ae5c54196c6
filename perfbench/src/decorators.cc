#include "decorators.h"

#include "trace.h"

namespace perfbench {

CountingOracle::CountingOracle(tasti::labeler::FallibleLabeler* inner,
                               size_t num_records, bool timing)
    : inner_(inner), num_records_(num_records), timing_(timing) {}

tasti::Result<tasti::data::LabelerOutput> CountingOracle::TryLabel(
    size_t index) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  if (!timing_) return inner_->TryLabel(index);
  const int64_t start = NowNs();
  tasti::Result<tasti::data::LabelerOutput> out = inner_->TryLabel(index);
  busy_ns_.fetch_add(NowNs() - start, std::memory_order_relaxed);
  return out;
}

tasti::Result<tasti::data::LabelerOutput> CountingOracle::TryLabelWithin(
    size_t index, double budget_ms) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  if (!timing_) return inner_->TryLabelWithin(index, budget_ms);
  const int64_t start = NowNs();
  tasti::Result<tasti::data::LabelerOutput> out =
      inner_->TryLabelWithin(index, budget_ms);
  busy_ns_.fetch_add(NowNs() - start, std::memory_order_relaxed);
  return out;
}

tasti::Result<tasti::data::LabelerOutput> FixedCostOracle::TryLabel(
    size_t index) {
  const int64_t deadline = NowNs() + cost_ns_;
  while (NowNs() < deadline) {
  }
  return inner_->TryLabel(index);
}

double CountingScorer::Score(const tasti::data::LabelerOutput& output) const {
  calls_.fetch_add(1, std::memory_order_relaxed);
  if (!timing_) return inner_->Score(output);
  const int64_t start = NowNs();
  const double score = inner_->Score(output);
  busy_ns_.fetch_add(NowNs() - start, std::memory_order_relaxed);
  return score;
}

}  // namespace perfbench
