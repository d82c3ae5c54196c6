#ifndef TASTI_QUERIES_SUPG_H_
#define TASTI_QUERIES_SUPG_H_

/// \file supg.h
/// Approximate selection with statistical guarantees, following SUPG
/// (Kang et al. 2020), recall-target setting: given a fixed target-labeler
/// budget, return a set of records containing at least `recall_target` of
/// all true matches with probability `confidence`.
///
/// The algorithm importance-samples records proportionally to
/// sqrt(proxy score), labels the sample, estimates the positive probability
/// mass below each candidate proxy threshold with importance weights, and
/// picks the largest threshold whose estimated recall clears an inflated
/// (confidence-adjusted) target. The returned set is every record at or
/// above the threshold plus all sampled positives.
///
/// Quality metric (paper Figure 5): the false positive rate of the
/// returned set — better proxies push the threshold higher and admit fewer
/// negatives.

#include <cstdint>
#include <vector>

#include "core/scorer.h"
#include "labeler/labeler.h"
#include "serve/deadline.h"

namespace tasti::queries {

/// Parameters of the recall-target SUPG query.
struct SupgOptions {
  /// Fraction of true matches that must be returned (paper: 90%).
  double recall_target = 0.9;
  /// Probability the recall target is met (paper: 95%).
  double confidence = 0.95;
  /// Target labeler budget (fixed, unlike aggregation).
  size_t budget = 1000;
  uint64_t seed = 202;
  /// Deadline checked before each batch of samples; on expiry the
  /// threshold is fitted to the samples taken so far (deadline_hit set).
  /// Default: unbounded.
  serve::Deadline deadline;
};

/// Outcome of one SUPG query.
struct SupgResult {
  /// Selected record indices (threshold region plus sampled positives).
  std::vector<size_t> selected;
  /// Proxy-score threshold chosen.
  double threshold = 0.0;
  /// Labeler invocations consumed (== budget unless the dataset is small).
  size_t labeler_invocations = 0;
  /// Positives found within the labeled sample.
  size_t sample_positives = 0;
  /// Oracle calls that failed after retries (fallible path only); failed
  /// samples are dropped from the estimate.
  size_t failed_oracle_calls = 0;
  /// Samples requested (the effective budget) vs actually labeled.
  size_t requested_samples = 0;
  size_t achieved_samples = 0;
  /// True if the deadline expired before the full budget was spent; the
  /// guarantee holds over the smaller achieved sample (more conservative
  /// threshold), not the requested one.
  bool deadline_hit = false;
};

/// Runs the recall-target selection. `scorer` must map labeler outputs to
/// 1 (match) / 0 (no match); `proxy_scores` are clipped to [0, 1]. A
/// sample whose oracle call fails is dropped — the recall bound then holds
/// over a smaller effective sample, which the confidence inflation already
/// accounts for — and achieved vs requested counts are reported. Fails
/// with Unavailable only if every call failed, and with FailedPrecondition
/// if `proxy_scores` and the oracle disagree on the record count.
///
/// The whole sample is drawn before the first label and goes to the
/// oracle in batches that split only where a draw repeats (LabelInRuns).
Result<SupgResult> TrySupgRecallSelect(const std::vector<double>& proxy_scores,
                                       labeler::FallibleLabeler* oracle,
                                       const core::Scorer& scorer,
                                       const SupgOptions& options);

/// Parameters of the precision-target SUPG query (the SUPG paper's second
/// setting; an extension beyond the figures reproduced here).
struct SupgPrecisionOptions {
  /// Fraction of returned records that must be true matches.
  double precision_target = 0.9;
  /// Probability the precision target is met.
  double confidence = 0.95;
  /// Target labeler budget.
  size_t budget = 1000;
  uint64_t seed = 203;
  /// Deadline checked before each batch of samples (see
  /// SupgOptions::deadline).
  serve::Deadline deadline;
};

/// Runs the precision-target selection: returns the largest
/// threshold-defined set whose estimated precision clears the
/// (confidence-inflated) target. Maximizes recall subject to precision.
/// Same degraded-mode semantics as TrySupgRecallSelect (failed samples
/// dropped, Unavailable when every call failed).
Result<SupgResult> TrySupgPrecisionSelect(
    const std::vector<double>& proxy_scores, labeler::FallibleLabeler* oracle,
    const core::Scorer& scorer, const SupgPrecisionOptions& options);

/// Evaluation helper: false positive rate of a selected set, i.e. the
/// fraction of returned records that do not match the ground-truth
/// predicate. Returns 0 for an empty set.
double FalsePositiveRate(const std::vector<size_t>& selected,
                         const std::vector<double>& exact_scores);

/// Evaluation helper: achieved recall of a selected set.
double AchievedRecall(const std::vector<size_t>& selected,
                      const std::vector<double>& exact_scores);

/// Evaluation helper: achieved precision of a selected set; 1 for empty.
double AchievedPrecision(const std::vector<size_t>& selected,
                         const std::vector<double>& exact_scores);

}  // namespace tasti::queries

#endif  // TASTI_QUERIES_SUPG_H_
