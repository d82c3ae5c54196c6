#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

/// \file decorators.h
/// Benchmark-owned decorators around the oracle and the scorers. Every
/// workload hands the library these instead of the raw objects, so the
/// benchmark counts (and, when timing is on, times) each call the layers
/// above make, without touching the program.

#include <atomic>
#include <cstdint>
#include <string>

#include "core/scorer.h"
#include "labeler/labeler.h"

namespace perfbench {

/// Counts and times every oracle call. Thread-safe when the inner oracle is.
///
/// `num_records` is what the oracle reports to the library, which checks it
/// against the dataset size; the inner oracle may cover more records (the
/// fresh records a write workload appends).
class CountingOracle : public tasti::labeler::FallibleLabeler {
 public:
  CountingOracle(tasti::labeler::FallibleLabeler* inner, size_t num_records,
                 bool timing);

  tasti::Result<tasti::data::LabelerOutput> TryLabel(size_t index) override;
  tasti::Result<tasti::data::LabelerOutput> TryLabelWithin(
      size_t index, double budget_ms) override;
  size_t num_records() const override { return num_records_; }
  size_t invocations() const override { return inner_->invocations(); }
  void ResetInvocations() override { inner_->ResetInvocations(); }
  double last_call_latency_ms() const override {
    return inner_->last_call_latency_ms();
  }

  /// Calls that reached this decorator.
  size_t calls() const { return calls_.load(std::memory_order_relaxed); }
  /// Seconds spent inside the inner oracle, summed over threads (0 unless
  /// timing is on).
  double busy_seconds() const {
    return static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

 private:
  tasti::labeler::FallibleLabeler* inner_;
  const size_t num_records_;
  const bool timing_;
  std::atomic<size_t> calls_{0};
  std::atomic<int64_t> busy_ns_{0};
};

/// An in-process oracle whose every call costs a fixed wall time, spent
/// spinning on the calling thread before forwarding (a sleep this short
/// would overrun by a timer-slack-sized, host-dependent amount).
class FixedCostOracle : public tasti::labeler::FallibleLabeler {
 public:
  FixedCostOracle(tasti::labeler::FallibleLabeler* inner, double cost_us)
      : inner_(inner), cost_ns_(static_cast<int64_t>(cost_us * 1e3)) {}

  tasti::Result<tasti::data::LabelerOutput> TryLabel(size_t index) override;
  size_t num_records() const override { return inner_->num_records(); }
  size_t invocations() const override { return inner_->invocations(); }
  void ResetInvocations() override { inner_->ResetInvocations(); }
  double last_call_latency_ms() const override {
    return static_cast<double>(cost_ns_) * 1e-6;
  }

 private:
  tasti::labeler::FallibleLabeler* inner_;
  const int64_t cost_ns_;
};

/// Counts and times every Score() call; forwards Name() and categorical(),
/// so caches keyed on the scorer see the inner scorer. Thread-safe.
class CountingScorer : public tasti::core::Scorer {
 public:
  CountingScorer(const tasti::core::Scorer* inner, bool timing)
      : inner_(inner), timing_(timing) {}

  double Score(const tasti::data::LabelerOutput& output) const override;
  bool categorical() const override { return inner_->categorical(); }
  std::string Name() const override { return inner_->Name(); }

  /// Switch timing while no thread is scoring.
  void set_timing(bool on) { timing_ = on; }
  size_t calls() const { return calls_.load(std::memory_order_relaxed); }
  double busy_seconds() const {
    return static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

 private:
  const tasti::core::Scorer* inner_;
  bool timing_;
  mutable std::atomic<size_t> calls_{0};
  mutable std::atomic<int64_t> busy_ns_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
