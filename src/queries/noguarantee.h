#ifndef TASTI_QUERIES_NOGUARANTEE_H_
#define TASTI_QUERIES_NOGUARANTEE_H_

/// \file noguarantee.h
/// Queries without statistical guarantees (paper Section 6.5, Table 2):
/// the proxy scores answer the query directly.
///
///  - Aggregation: the dataset mean of the proxy scores is the estimate;
///    quality metric is percent error versus ground truth.
///  - Selection: records whose proxy score clears a threshold are
///    returned, NoScope / Tahoma / probabilistic-predicates style; the
///    threshold is fit on a small labeled validation sample to maximize
///    F1, and the quality metric is 100 - F1.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/scorer.h"
#include "labeler/labeler.h"
#include "serve/deadline.h"

namespace tasti::queries {

/// Direct aggregation: mean of the proxy scores (no labeler calls).
double DirectAggregate(const std::vector<double>& proxy_scores);

/// Percent error of an estimate versus the truth: |est - truth| / truth.
/// Falls back to absolute error when the truth is ~0.
double PercentError(double estimate, double truth);

/// Parameters for threshold selection.
struct ThresholdSelectOptions {
  /// Labeler budget spent on the validation sample used to fit the
  /// threshold.
  size_t validation_budget = 500;
  uint64_t seed = 303;
  /// Deadline checked before the validation batch; on expiry the threshold
  /// is fit on the labels gathered so far. Default: unbounded.
  serve::Deadline deadline;
};

/// Outcome of threshold selection.
struct ThresholdSelectResult {
  std::vector<size_t> selected;
  double threshold = 0.0;
  size_t labeler_invocations = 0;
  /// F1 achieved on the validation sample at the chosen threshold.
  double validation_f1 = 0.0;
  /// Oracle calls that failed after retries (fallible path only); the
  /// threshold is fit on the validation labels that succeeded.
  size_t failed_oracle_calls = 0;
  /// True if the deadline cut the validation sample short.
  bool deadline_hit = false;
};

/// Fits a threshold on a uniform validation sample (the best F1 of 64
/// candidates evenly spaced between the min and max proxy score) and
/// returns every record whose proxy score clears it. Validation records whose oracle
/// call fails are dropped from the fit. Fails with Unavailable only if
/// every validation call failed, and with FailedPrecondition if
/// `proxy_scores` and the oracle disagree on the record count. The whole
/// validation sample goes to the oracle as one batch.
Result<ThresholdSelectResult> TryThresholdSelect(
    const std::vector<double>& proxy_scores, labeler::FallibleLabeler* oracle,
    const core::Scorer& predicate, const ThresholdSelectOptions& options);

/// Evaluation helper: F1 of a selected set against exact 0/1 scores.
double F1Score(const std::vector<size_t>& selected,
               const std::vector<double>& exact_scores);

}  // namespace tasti::queries

#endif  // TASTI_QUERIES_NOGUARANTEE_H_
