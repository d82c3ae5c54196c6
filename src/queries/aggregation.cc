#include "queries/aggregation.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "queries/sampling.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"

namespace tasti::queries {

namespace {

// Control-variate transformed sample: y = f - c * (p - mu_p). Recomputed
// whenever c is refit from the samples collected so far.
struct SampleSet {
  std::vector<double> f;  // labeler scores
  std::vector<double> p;  // proxy scores
};

double FitControlCoefficient(const SampleSet& samples) {
  RunningCovariance cov;
  for (size_t i = 0; i < samples.f.size(); ++i) {
    cov.Add(samples.p[i], samples.f[i]);
  }
  const double vp = cov.variance_x();
  if (vp <= 1e-12) return 0.0;
  return cov.covariance() / vp;
}

}  // namespace

Result<AggregationResult> TryEstimateMean(
    const std::vector<double>& proxy_scores, labeler::FallibleLabeler* oracle,
    const core::Scorer& scorer, const AggregationOptions& options) {
  TASTI_CHECK(oracle != nullptr, "TryEstimateMean requires an oracle");
  if (proxy_scores.size() != oracle->num_records()) {
    return Status::FailedPrecondition(
        "aggregation: proxy scores must cover every record");
  }
  TASTI_CHECK(options.error_target > 0.0, "error target must be positive");
  TASTI_CHECK(options.confidence > 0.0 && options.confidence < 1.0,
              "confidence must be in (0, 1)");

  const size_t n = proxy_scores.size();
  const size_t max_samples =
      options.max_samples > 0 ? std::min(options.max_samples, n) : n;
  const double delta = 1.0 - options.confidence;
  const double mu_p = Mean(proxy_scores);

  Rng rng(options.seed);
  // Sampling without replacement via a shuffled permutation: unbiased for
  // the mean, and the query degrades gracefully to exhaustive labeling.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(&order);

  SampleSet samples;
  samples.f.reserve(max_samples);
  samples.p.reserve(max_samples);

  AggregationResult result;
  size_t checks = 0;

  auto evaluate_stop = [&](size_t taken) -> bool {
    ++checks;
    const double c = options.use_control_variate ? FitControlCoefficient(samples)
                                                 : 0.0;
    // Transformed observations.
    std::vector<double> y(taken);
    double f_min = 0.0, f_max = 0.0;
    for (size_t i = 0; i < taken; ++i) {
      y[i] = samples.f[i] - c * (samples.p[i] - mu_p);
      if (i == 0) {
        f_min = f_max = samples.f[i];
      } else {
        f_min = std::min(f_min, samples.f[i]);
        f_max = std::max(f_max, samples.f[i]);
      }
    }
    // Union bound over stopping checks: delta_t = delta / (t (t + 1))
    // sums to < delta over all t >= 1 (EBGStop-style allocation).
    const double delta_t =
        delta / (static_cast<double>(checks) * (static_cast<double>(checks) + 1.0));
    // Plug-in range bound: the support of the underlying statistic f
    // (padded, since only a sample has been observed), as BlazeIt's EBS
    // uses the known range of the aggregated quantity. Method-independent,
    // so the range term is a shared floor and the control-variate variance
    // reduction is what differentiates proxies — matching the paper, where
    // the no-proxy/TASTI ratio (~2.5x) is far below the raw variance ratio.
    const double range = std::max(f_max - f_min, 1e-9) * 1.25;
    const double half =
        EmpiricalBernsteinHalfWidth(Variance(y), range, taken, delta_t);
    result.estimate = Mean(y);
    result.half_width = half;
    result.control_coefficient = c;
    return half <= options.error_target;
  };

  {
    TASTI_SPAN("query.agg.sample");
    // One batch per window up to the next stopping check.
    size_t taken = 0;
    while (taken < max_samples) {
      const size_t check = NextStoppingCheck(taken, options.min_samples,
                                             options.check_interval);
      const std::vector<size_t> window(
          order.begin() + taken, order.begin() + std::min(check, max_samples));
      std::vector<Result<data::LabelerOutput>> labels =
          LabelInRuns(oracle, window, options.deadline);
      for (size_t i = 0; i < labels.size(); ++i) {
        const size_t record = window[i];
        if (labels[i].ok()) {
          samples.f.push_back(scorer.Score(*labels[i]));
        } else {
          // Keep the slot: substitute the proxy score so the sample count
          // and stopping rule are unaffected (reported as a substitution).
          ++result.failed_oracle_calls;
          ++result.substituted_samples;
          samples.f.push_back(proxy_scores[record]);
        }
        samples.p.push_back(proxy_scores[record]);
      }
      taken += labels.size();
      // Deadline boundary: stop sampling and finalize with what we have.
      if (labels.size() < window.size()) {
        result.deadline_hit = true;
        break;
      }
      if (taken == check && evaluate_stop(taken)) {
        result.converged = true;
        break;
      }
    }
  }
  if (!result.converged && !samples.f.empty()) {
    // Exhausted the budget (or the deadline); produce the final estimate
    // anyway — honest for the samples taken, just wider than requested.
    evaluate_stop(samples.f.size());
    // An exhaustive pass over the dataset is exact by construction.
    result.converged = samples.f.size() == n;
  }
  if (samples.f.empty() && result.deadline_hit) {
    // The deadline expired before the first sample: no estimate at all.
    return Status::DeadlineExceeded(
        "aggregation: deadline expired before any sample was taken");
  }
  result.labeler_invocations = samples.f.size();
  result.proxy_correlation = PearsonCorrelation(samples.p, samples.f);
  if (!samples.f.empty() && result.failed_oracle_calls == samples.f.size()) {
    return Status::Unavailable("aggregation: every oracle call failed (" +
                               std::to_string(result.failed_oracle_calls) +
                               " attempts)");
  }
  return result;
}

}  // namespace tasti::queries
