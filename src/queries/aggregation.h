#ifndef TASTI_QUERIES_AGGREGATION_H_
#define TASTI_QUERIES_AGGREGATION_H_

/// \file aggregation.h
/// Approximate aggregation with statistical guarantees, following BlazeIt
/// (Kang et al. 2019): sample records, label them with the target labeler,
/// use the proxy scores as a control variate, and stop when an
/// empirical-Bernstein confidence interval is within the error target.
///
/// Better proxy scores => higher proxy/labeler correlation => smaller
/// control-variate variance => fewer labeler invocations. That mechanism
/// is exactly what the paper's Figure 4 measures.

#include <cstdint>
#include <vector>

#include "core/scorer.h"
#include "labeler/labeler.h"
#include "serve/deadline.h"

namespace tasti::queries {

/// Parameters of the EBS aggregation query.
struct AggregationOptions {
  /// Absolute error target (the paper uses 0.01).
  double error_target = 0.01;
  /// Success probability (the paper uses 95%).
  double confidence = 0.95;
  /// Use the proxy as a control variate. Disabled for the "no proxy"
  /// baseline (plain EBS mean estimation).
  bool use_control_variate = true;
  /// Samples drawn before the first stopping check.
  size_t min_samples = 100;
  /// Stopping-rule evaluation period (samples between checks).
  size_t check_interval = 50;
  /// Hard cap on labeler invocations; 0 means the dataset size.
  size_t max_samples = 0;
  uint64_t seed = 101;
  /// Deadline checked before each batch of oracle calls (queries/sampling.h);
  /// on expiry sampling stops and the result is finalized from the samples
  /// taken so far (honest but wider interval, deadline_hit set). Default:
  /// unbounded.
  serve::Deadline deadline;
};

/// Outcome of one aggregation query.
struct AggregationResult {
  /// Estimated dataset mean of the scorer.
  double estimate = 0.0;
  /// Labeler invocations consumed (the paper's cost metric).
  size_t labeler_invocations = 0;
  /// Final confidence-interval half width.
  double half_width = 0.0;
  /// Pearson correlation between proxy and labeler scores on the sample.
  double proxy_correlation = 0.0;
  /// Fitted control-variate coefficient.
  double control_coefficient = 0.0;
  /// True if the error target was met before exhausting max_samples.
  bool converged = false;
  /// Oracle calls that failed after retries (fallible path only).
  size_t failed_oracle_calls = 0;
  /// Failed samples whose labeler score was replaced by the proxy score
  /// (keeps the sample size and stopping rule intact at some bias cost).
  size_t substituted_samples = 0;
  /// True if the deadline expired before the stopping rule was satisfied;
  /// the interval is valid for the samples taken but wider than requested.
  bool deadline_hit = false;
};

/// Estimates the mean of `scorer` over all records.
///
/// `proxy_scores` must contain one score per record; its exact dataset
/// mean is free to compute (proxies are cheap), which is what makes the
/// control variate unbiased. The oracle is charged one invocation per
/// sampled record (pass a CachingFallibleLabeler to deduplicate repeats).
///
/// A sample whose oracle call fails keeps its slot with the propagated
/// proxy score substituted for the labeler score (the mean stays defined
/// and the stopping rule keeps its sample count; substitutions are
/// reported for bias accounting). Fails with Unavailable only if every
/// oracle call failed, and with FailedPrecondition if `proxy_scores` and
/// the oracle disagree on the record count.
///
/// The samples of each window up to the next stopping check (min_samples,
/// then every check_interval) go to the oracle as one batch.
Result<AggregationResult> TryEstimateMean(
    const std::vector<double>& proxy_scores, labeler::FallibleLabeler* oracle,
    const core::Scorer& scorer, const AggregationOptions& options);

}  // namespace tasti::queries

#endif  // TASTI_QUERIES_AGGREGATION_H_
