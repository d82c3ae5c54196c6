#include "serve/deadline.h"

#include <algorithm>
#include <cmath>

namespace tasti::serve {

const char* GuaranteeLevelName(GuaranteeLevel level) {
  switch (level) {
    case GuaranteeLevel::kFull:
      return "full";
    case GuaranteeLevel::kReduced:
      return "reduced";
  }
  return "unknown";
}

Deadline Deadline::Unbounded() { return Deadline(); }

Deadline Deadline::WallAfter(double budget_ms) {
  Deadline d;
  d.state_ = std::make_shared<State>();
  d.state_->virtual_time = false;
  d.state_->budget_ms = std::max(0.0, budget_ms);
  d.state_->start = std::chrono::steady_clock::now();
  return d;
}

Deadline Deadline::VirtualBudget(double budget_ms) {
  Deadline d;
  d.state_ = std::make_shared<State>();
  d.state_->virtual_time = true;
  d.state_->budget_ms = std::max(0.0, budget_ms);
  return d;
}

double Deadline::budget_ms() const {
  if (state_ == nullptr) return std::numeric_limits<double>::infinity();
  return state_->budget_ms;
}

void Deadline::Charge(double ms) {
  if (state_ == nullptr || !state_->virtual_time || ms <= 0) return;
  const auto us = static_cast<int64_t>(std::llround(ms * 1000.0));
  state_->spent_us.fetch_add(us, std::memory_order_relaxed);
}

double Deadline::spent_ms() const {
  if (state_ == nullptr) return 0.0;
  if (state_->virtual_time) {
    return static_cast<double>(
               state_->spent_us.load(std::memory_order_relaxed)) /
           1000.0;
  }
  const auto elapsed = std::chrono::steady_clock::now() - state_->start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

double Deadline::remaining_ms() const {
  if (state_ == nullptr) return std::numeric_limits<double>::infinity();
  return std::max(0.0, state_->budget_ms - spent_ms());
}

bool Deadline::expired() const {
  if (state_ == nullptr) return false;
  return spent_ms() >= state_->budget_ms;
}

size_t Deadline::AdmittedCalls(size_t calls, double ms_per_call) const {
  if (state_ == nullptr) return calls;
  if (exhausted()) return 0;
  if (!state_->virtual_time || ms_per_call <= 0) return calls;
  // Replays the loop in Charge()'s integer microseconds, so the count
  // matches per-call charging bit for bit.
  const auto step_us = static_cast<int64_t>(std::llround(ms_per_call * 1000.0));
  int64_t spent_us = state_->spent_us.load(std::memory_order_relaxed);
  size_t admitted = 0;
  while (admitted < calls &&
         static_cast<double>(spent_us) / 1000.0 < state_->budget_ms) {
    ++admitted;
    spent_us += step_us;
  }
  return admitted;
}

void Deadline::Cancel() {
  if (state_ == nullptr) return;
  state_->cancelled.store(true, std::memory_order_relaxed);
}

bool Deadline::cancelled() const {
  if (state_ == nullptr) return false;
  return state_->cancelled.load(std::memory_order_relaxed);
}

DeadlineOracle::DeadlineOracle(labeler::FallibleLabeler* inner,
                               Deadline deadline, double virtual_ms_per_call)
    : inner_(inner),
      deadline_(std::move(deadline)),
      virtual_ms_per_call_(virtual_ms_per_call) {}

Result<data::LabelerOutput> DeadlineOracle::TryLabel(size_t index) {
  return TryLabelWithin(index, deadline_.remaining_ms());
}

Result<data::LabelerOutput> DeadlineOracle::TryLabelWithin(size_t index,
                                                           double budget_ms) {
  if (deadline_.exhausted()) {
    ++rejected_;
    return Status::DeadlineExceeded(
        deadline_.cancelled() ? "oracle call rejected: query cancelled"
                              : "oracle call rejected: query deadline spent");
  }
  const double budget = std::min(budget_ms, deadline_.remaining_ms());
  ++forwarded_;
  auto result = inner_->TryLabelWithin(index, budget);
  // Flat per-logical-call charge: deterministic no matter which physical
  // request (cache hit, deduped join, batch member) served this call.
  deadline_.Charge(virtual_ms_per_call_);
  return result;
}

std::vector<Result<data::LabelerOutput>> DeadlineOracle::TryLabelBatch(
    const std::vector<size_t>& indices) {
  return TryLabelBatchWithin(indices, deadline_.remaining_ms());
}

std::vector<Result<data::LabelerOutput>> DeadlineOracle::TryLabelBatchWithin(
    const std::vector<size_t>& indices, double budget_ms) {
  const size_t admitted =
      deadline_.AdmittedCalls(indices.size(), virtual_ms_per_call_);
  rejected_ += indices.size() - admitted;
  if (admitted == 0) return {};
  const double budget = std::min(budget_ms, deadline_.remaining_ms());
  forwarded_ += admitted;
  const std::vector<size_t> prefix(indices.begin(), indices.begin() + admitted);
  std::vector<Result<data::LabelerOutput>> results =
      inner_->TryLabelBatchWithin(prefix, budget);
  for (size_t i = 0; i < admitted; ++i) deadline_.Charge(virtual_ms_per_call_);
  return results;
}

}  // namespace tasti::serve
