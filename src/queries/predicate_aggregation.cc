#include "queries/predicate_aggregation.h"

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

// Floor on the per-record sampling weight (keeps estimates unbiased for
// records the proxy wrongly scores ~0).
constexpr double kWeightFloor = 0.05;

}  // namespace

Result<PredicateAggregationResult> TryEstimateMeanWithPredicate(
    const std::vector<double>& predicate_proxy,
    labeler::FallibleLabeler* oracle, const core::Scorer& predicate,
    const core::Scorer& statistic, const PredicateAggregationOptions& options) {
  TASTI_CHECK(oracle != nullptr,
              "TryEstimateMeanWithPredicate requires an oracle");
  if (predicate_proxy.size() != oracle->num_records()) {
    return Status::FailedPrecondition(
        "predicate-aggregation: proxy scores must cover every record");
  }
  TASTI_CHECK(options.error_target > 0.0, "error target must be positive");

  const size_t n = predicate_proxy.size();
  const size_t max_samples =
      options.max_samples > 0 ? std::min(options.max_samples, n) : n;
  const double delta = 1.0 - options.confidence;
  Rng rng(options.seed);

  // Sampling weights: predicate proxy with a floor. Importance weight of a
  // sampled record is (1/n) / (w_i / W).
  std::vector<double> weights(n);
  double total_weight = 0.0;
  for (size_t i = 0; i < n; ++i) {
    weights[i] =
        std::max(std::clamp(predicate_proxy[i], 0.0, 1.0), kWeightFloor);
    total_weight += weights[i];
  }
  std::vector<double> prefix(n);
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += weights[i];
    prefix[i] = acc;
  }

  // Hajek ratio estimate: sum(w_i m_i f_i) / sum(w_i m_i) with m_i the
  // match indicator. Numerator and denominator are both means of bounded
  // per-draw quantities; the interval comes from bounding each and
  // propagating through the ratio (conservative delta method).
  std::vector<double> numer, denom;
  numer.reserve(max_samples);
  denom.reserve(max_samples);

  PredicateAggregationResult result;
  size_t checks = 0;

  auto evaluate_stop = [&]() -> bool {
    if (numer.empty()) return false;
    ++checks;
    const double mean_numer = Mean(numer);
    const double mean_denom = Mean(denom);
    if (mean_denom <= 1e-12) return false;
    result.estimate = mean_numer / mean_denom;
    const double delta_t =
        delta / (2.0 * static_cast<double>(checks) *
                 (static_cast<double>(checks) + 1.0));
    const size_t taken = numer.size();
    // Per-draw bounds: plug-in empirical ranges, as in the EBS
    // aggregation rule.
    const double numer_range =
        std::max(*std::max_element(numer.begin(), numer.end()) -
                     *std::min_element(numer.begin(), numer.end()),
                 1e-9) *
        1.25;
    const double denom_range =
        std::max(*std::max_element(denom.begin(), denom.end()) -
                     *std::min_element(denom.begin(), denom.end()),
                 1e-9) *
        1.25;
    const double half_numer =
        EmpiricalBernsteinHalfWidth(Variance(numer), numer_range, taken, delta_t);
    const double half_denom =
        EmpiricalBernsteinHalfWidth(Variance(denom), denom_range, taken, delta_t);
    // Ratio propagation: |r̂ - r| <= (hN + |r̂| hD) / (D̂ - hD) when D̂ > hD.
    if (mean_denom <= half_denom) return false;
    result.half_width = (half_numer + std::abs(result.estimate) * half_denom) /
                        (mean_denom - half_denom);
    return result.half_width <= options.error_target;
  };

  TASTI_SPAN("query.predagg.sample");
  // One batch per window of draws up to the next stopping check.
  size_t taken = 0;
  while (taken < max_samples) {
    const size_t check = NextStoppingCheck(taken, options.min_samples,
                                           options.check_interval);
    const std::vector<size_t> draws = DrawWithReplacement(
        prefix, total_weight, std::min(check, max_samples) - taken, &rng);
    std::vector<Result<data::LabelerOutput>> labels =
        LabelInRuns(oracle, draws, options.deadline);
    for (size_t i = 0; i < labels.size(); ++i) {
      ++result.labeler_invocations;
      if (!labels[i].ok()) {
        // Drop the draw: the statistic has no proxy substitute. The call
        // still consumed budget.
        ++result.failed_oracle_calls;
        continue;
      }
      const size_t record = draws[i];
      const bool matches = predicate.Score(*labels[i]) >= 0.5;
      const double importance =
          (1.0 / static_cast<double>(n)) / (weights[record] / total_weight);
      double f = 0.0;
      if (matches) {
        f = statistic.Score(*labels[i]);
        ++result.sample_matches;
      }
      numer.push_back(matches ? importance * f : 0.0);
      denom.push_back(matches ? importance : 0.0);
    }
    taken += labels.size();
    // Deadline boundary: stop drawing and finalize with what we have.
    if (labels.size() < draws.size()) {
      result.deadline_hit = true;
      break;
    }
    // A failed draw adds no sample, so a check that falls on it is skipped.
    if (taken == check && labels.back().ok() && evaluate_stop()) {
      result.converged = true;
      break;
    }
  }
  if (result.labeler_invocations > 0 &&
      result.failed_oracle_calls == result.labeler_invocations) {
    return Status::Unavailable("predicate-aggregation: every oracle call "
                               "failed (" +
                               std::to_string(result.failed_oracle_calls) +
                               " attempts)");
  }
  if (!result.converged) evaluate_stop();
  return result;
}

}  // namespace tasti::queries
