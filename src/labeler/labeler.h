#ifndef TASTI_LABELER_LABELER_H_
#define TASTI_LABELER_LABELER_H_

/// \file labeler.h
/// Target labelers: the expensive oracles (Mask R-CNN, crowd workers, SSD)
/// that produce structured outputs from unstructured records.
///
/// The paper's primary cost metric is the number of target labeler
/// invocations, so every labeler counts calls. Query processing code must
/// obtain ground truth only through this interface.

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/schema.h"
#include "util/status.h"

namespace tasti::labeler {

/// Abstract target labeler over a fixed dataset of records: the
/// ground-truth source (simulators, degraded detectors). Query processing
/// and index construction take a FallibleLabeler; FallibleAdapter bridges
/// the two.
class TargetLabeler {
 public:
  virtual ~TargetLabeler() = default;

  /// Labels record `index`. Each call counts as one invocation even if the
  /// same record is labeled twice.
  virtual data::LabelerOutput Label(size_t index) = 0;

  /// Labels every record in `indices`, one label per position in request
  /// order. The default calls Label in order.
  virtual std::vector<data::LabelerOutput> LabelBatch(
      const std::vector<size_t>& indices);

  /// Number of records this labeler can label.
  virtual size_t num_records() const = 0;

  /// Invocations so far (including those of wrapped labelers).
  virtual size_t invocations() const = 0;

  /// Resets the invocation counter.
  virtual void ResetInvocations() = 0;
};

/// A target labeler whose calls can fail.
///
/// Production oracles (remote model servers, crowd pipelines) time out,
/// throttle, and return garbage; TryLabel surfaces those outcomes as a
/// Result instead of aborting. Every TryLabel call counts as one
/// invocation whether or not it succeeds — the paper's cost metric is
/// calls made, not calls that returned a usable label.
class FallibleLabeler {
 public:
  virtual ~FallibleLabeler() = default;

  /// Attempts to label record `index`.
  virtual Result<data::LabelerOutput> TryLabel(size_t index) = 0;

  /// Attempts to label record `index` with at most `budget_ms` of (virtual
  /// or wall) time left in the caller's deadline. Budget-aware wrappers
  /// (ResilientLabeler caps retry backoff; the oracle scheduler forwards
  /// to its inner labeler) override this; the default ignores the budget,
  /// so a chain with a non-forwarding link degrades to plain TryLabel
  /// rather than misbehaving.
  virtual Result<data::LabelerOutput> TryLabelWithin(size_t index,
                                                     double budget_ms) {
    (void)budget_ms;
    return TryLabel(index);
  }

  /// Attempts to label every record in `indices`, one result per position
  /// in request order. The default calls TryLabel in order; links that can
  /// overlap calls (the oracle scheduler) or share a cache or a lock across
  /// them override it. Each attempt counts as one invocation, as for
  /// TryLabel. A link that enforces a deadline (serve::DeadlineOracle)
  /// returns the results of the prefix it admitted: positions past the end
  /// of a shorter result were never attempted, which tells a deadline cut
  /// apart from a failed call.
  virtual std::vector<Result<data::LabelerOutput>> TryLabelBatch(
      const std::vector<size_t>& indices);

  /// TryLabelBatch with at most `budget_ms` left in the caller's deadline,
  /// as TryLabelWithin is to TryLabel. The default ignores the budget.
  virtual std::vector<Result<data::LabelerOutput>> TryLabelBatchWithin(
      const std::vector<size_t>& indices, double budget_ms) {
    (void)budget_ms;
    return TryLabelBatch(indices);
  }

  /// Number of records this labeler can label.
  virtual size_t num_records() const = 0;

  /// Attempts so far, including failed ones.
  virtual size_t invocations() const = 0;

  /// Resets the invocation counter.
  virtual void ResetInvocations() = 0;

  /// Simulated wall-clock cost of the most recent TryLabel, in ms. Used by
  /// resilience wrappers to advance their virtual clock deterministically.
  virtual double last_call_latency_ms() const { return 0.0; }
};

/// Adapts an infallible TargetLabeler to the FallibleLabeler interface.
/// Every call succeeds; invocation counting passes through to the inner
/// labeler so existing cost accounting is unchanged.
class FallibleAdapter : public FallibleLabeler {
 public:
  /// The inner labeler must outlive the adapter.
  explicit FallibleAdapter(TargetLabeler* inner);

  Result<data::LabelerOutput> TryLabel(size_t index) override;
  size_t num_records() const override { return inner_->num_records(); }
  size_t invocations() const override { return inner_->invocations(); }
  void ResetInvocations() override { inner_->ResetInvocations(); }

 private:
  TargetLabeler* inner_;
};

/// Adapts a FallibleLabeler back to the infallible TargetLabeler interface
/// by substituting a fallback label when a call fails. Used where the
/// algorithm needs *some* label for every record (e.g. triplet mining for
/// embedding training) and a default is acceptable; failures are counted
/// so callers can report degraded coverage.
class BestEffortLabeler : public TargetLabeler {
 public:
  /// The inner labeler must outlive the wrapper.
  BestEffortLabeler(FallibleLabeler* inner, data::LabelerOutput fallback);

  data::LabelerOutput Label(size_t index) override;
  /// Forwards to the inner TryLabelBatch and substitutes the fallback for
  /// each failed position, counting each failure.
  std::vector<data::LabelerOutput> LabelBatch(
      const std::vector<size_t>& indices) override;
  size_t num_records() const override { return inner_->num_records(); }
  size_t invocations() const override { return inner_->invocations(); }
  void ResetInvocations() override { inner_->ResetInvocations(); }

  /// Calls that failed and received the fallback label.
  size_t failures() const { return failures_; }

 private:
  FallibleLabeler* inner_;
  data::LabelerOutput fallback_;
  size_t failures_ = 0;
};

/// Returns a neutral "no information" label for the given modality, used
/// as the BestEffortLabeler fallback during degraded index construction.
data::LabelerOutput DefaultLabelFor(data::Modality modality);

/// Exact simulated labeler: returns the dataset's ground truth. Stands in
/// for Mask R-CNN / human annotation at full accuracy. Thread-safe: the
/// dataset is read-only and the invocation counter is atomic, so the
/// serving layer's oracle scheduler may invoke it from concurrent
/// dispatch threads.
class SimulatedLabeler : public TargetLabeler {
 public:
  /// The dataset must outlive the labeler.
  explicit SimulatedLabeler(const data::Dataset* dataset);

  data::LabelerOutput Label(size_t index) override;
  size_t num_records() const override;
  size_t invocations() const override {
    return invocations_.load(std::memory_order_relaxed);
  }
  void ResetInvocations() override {
    invocations_.store(0, std::memory_order_relaxed);
  }

 private:
  const data::Dataset* dataset_;
  std::atomic<size_t> invocations_{0};
};

/// Error model for a degraded detector (the paper's SSD comparison: ~2x
/// less accurate than Mask R-CNN, producing a 33% aggregate error).
struct DegradationOptions {
  /// Probability each true box is missed entirely. A detected box also
  /// gets the wrong class with probability 0.05 (video datasets with more
  /// than one class) and positional jitter of std-dev 0.03.
  double miss_probability = 0.25;
  /// Expected number of spurious boxes per record.
  double false_positive_rate = 0.05;
  uint64_t seed = 11;
};

/// Degraded simulated labeler (video datasets only): applies the error
/// model on top of ground truth. Deterministic per record and thread-safe
/// (the error model re-seeds per record, so calls share no mutable state
/// beyond the atomic counter).
class DegradedLabeler : public TargetLabeler {
 public:
  DegradedLabeler(const data::Dataset* dataset, DegradationOptions options);

  data::LabelerOutput Label(size_t index) override;
  size_t num_records() const override;
  size_t invocations() const override {
    return invocations_.load(std::memory_order_relaxed);
  }
  void ResetInvocations() override {
    invocations_.store(0, std::memory_order_relaxed);
  }

 private:
  const data::Dataset* dataset_;
  DegradationOptions options_;
  std::atomic<size_t> invocations_{0};
};

}  // namespace tasti::labeler

#endif  // TASTI_LABELER_LABELER_H_
