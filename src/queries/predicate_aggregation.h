#ifndef TASTI_QUERIES_PREDICATE_AGGREGATION_H_
#define TASTI_QUERIES_PREDICATE_AGGREGATION_H_

/// \file predicate_aggregation.h
/// Approximate aggregation with predicates: estimate the mean of a
/// statistic over the records *matching a predicate*, e.g. "average number
/// of cars per frame among frames that contain a bus".
///
/// This is the query class the paper's Section 2.2 points to ("other work
/// has used TASTI to support aggregation queries with predicates", Kang et
/// al. 2021). TASTI serves it naturally: the same index produces one proxy
/// for the predicate (guiding importance sampling toward likely matches)
/// and one for the statistic — no per-query training for either role.
///
/// The estimator importance-samples records proportionally to a floor-ed
/// predicate proxy, labels them, and forms the Hajek (self-normalized)
/// ratio estimate of the conditional mean; stopping uses an empirical-
/// Bernstein interval on the ratio via the delta method.

#include <cstdint>
#include <vector>

#include "core/scorer.h"
#include "labeler/labeler.h"
#include "serve/deadline.h"

namespace tasti::queries {

/// Parameters of the predicate aggregation query.
struct PredicateAggregationOptions {
  /// Absolute error target on the conditional mean.
  double error_target = 0.05;
  /// Success probability.
  double confidence = 0.95;
  /// Samples drawn before the first stopping check.
  size_t min_samples = 100;
  /// Stopping-rule evaluation period.
  size_t check_interval = 50;
  /// Hard cap on labeler invocations; 0 means the dataset size.
  size_t max_samples = 0;
  uint64_t seed = 404;
  /// Deadline checked before each batch of draws; on expiry sampling stops
  /// and the ratio estimate is finalized from the draws so far. Default:
  /// unbounded.
  serve::Deadline deadline;
};

/// Outcome of one predicate aggregation query.
struct PredicateAggregationResult {
  /// Estimated mean of the statistic over matching records.
  double estimate = 0.0;
  /// Labeler invocations consumed.
  size_t labeler_invocations = 0;
  /// Matching records found in the sample.
  size_t sample_matches = 0;
  /// Final confidence-interval half width.
  double half_width = 0.0;
  /// True if the error target was met within the budget.
  bool converged = false;
  /// Oracle calls that failed after retries (fallible path only); those
  /// draws are dropped from the estimator and the sample count shrinks.
  size_t failed_oracle_calls = 0;
  /// True if the deadline expired before the stopping rule was satisfied.
  bool deadline_hit = false;
};

/// Estimates E[statistic | predicate]. `predicate_proxy` guides sampling
/// (scores clipped to [0, 1]); the labeler output is scored exactly by
/// both scorers for each sampled record. A draw whose oracle call fails
/// is dropped (no proxy substitute exists for the statistic) and the
/// budget is still consumed. Fails with Unavailable only if every call
/// failed, and with FailedPrecondition if `predicate_proxy` and the oracle
/// disagree on the record count.
///
/// The draws of each window up to the next stopping check go to the
/// oracle together (split where a draw repeats, see LabelInRuns).
Result<PredicateAggregationResult> TryEstimateMeanWithPredicate(
    const std::vector<double>& predicate_proxy,
    labeler::FallibleLabeler* oracle, const core::Scorer& predicate,
    const core::Scorer& statistic, const PredicateAggregationOptions& options);

}  // namespace tasti::queries

#endif  // TASTI_QUERIES_PREDICATE_AGGREGATION_H_
