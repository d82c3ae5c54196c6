#include "queries/noguarantee.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "queries/sampling.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"

namespace tasti::queries {

double DirectAggregate(const std::vector<double>& proxy_scores) {
  return Mean(proxy_scores);
}

double PercentError(double estimate, double truth) {
  if (std::abs(truth) < 1e-9) return std::abs(estimate - truth);
  return std::abs(estimate - truth) / std::abs(truth);
}

namespace {
// Candidate thresholds swept between the min and max proxy score.
constexpr size_t kNumCandidates = 64;

// F1 over (prediction, truth) pairs.
double F1FromCounts(size_t tp, size_t fp, size_t fn) {
  const double denom = static_cast<double>(2 * tp + fp + fn);
  if (denom <= 0.0) return 0.0;
  return 2.0 * static_cast<double>(tp) / denom;
}
}  // namespace

Result<ThresholdSelectResult> TryThresholdSelect(
    const std::vector<double>& proxy_scores, labeler::FallibleLabeler* oracle,
    const core::Scorer& predicate, const ThresholdSelectOptions& options) {
  TASTI_CHECK(oracle != nullptr, "TryThresholdSelect requires an oracle");
  if (proxy_scores.size() != oracle->num_records()) {
    return Status::FailedPrecondition(
        "threshold-select: proxy scores must cover every record");
  }

  const size_t n = proxy_scores.size();
  Rng rng(options.seed);

  // Label a uniform validation sample.
  const size_t budget = std::min(options.validation_budget, n);
  const std::vector<size_t> validation = rng.SampleWithoutReplacement(n, budget);
  std::vector<double> val_proxy;
  std::vector<bool> val_truth;
  val_proxy.reserve(budget);
  val_truth.reserve(budget);
  size_t failed_calls = 0;
  size_t attempted = 0;
  bool deadline_hit = false;
  {
    TASTI_SPAN("query.select.validate");
    std::vector<Result<data::LabelerOutput>> labels =
        LabelInRuns(oracle, validation, options.deadline);
    attempted = labels.size();
    // Deadline boundary: fit on the validation labels gathered so far.
    deadline_hit = attempted < validation.size();
    for (size_t i = 0; i < attempted; ++i) {
      if (!labels[i].ok()) {
        // Fit on the validation labels that succeeded.
        ++failed_calls;
        continue;
      }
      val_proxy.push_back(proxy_scores[validation[i]]);
      val_truth.push_back(predicate.Score(*labels[i]) >= 0.5);
    }
  }
  if (attempted > 0 && failed_calls == attempted) {
    return Status::Unavailable("threshold-select: every oracle call failed (" +
                               std::to_string(failed_calls) + " attempts)");
  }

  // Sweep thresholds over the observed proxy range; pick the best F1.
  double lo = *std::min_element(proxy_scores.begin(), proxy_scores.end());
  double hi = *std::max_element(proxy_scores.begin(), proxy_scores.end());
  if (hi <= lo) hi = lo + 1.0;

  ThresholdSelectResult result;
  result.labeler_invocations = attempted;
  result.failed_oracle_calls = failed_calls;
  result.deadline_hit = deadline_hit;
  double best_f1 = -1.0;
  for (size_t c = 0; c < kNumCandidates; ++c) {
    const double threshold =
        lo + (hi - lo) * static_cast<double>(c + 1) /
                 static_cast<double>(kNumCandidates + 1);
    size_t tp = 0, fp = 0, fn = 0;
    for (size_t i = 0; i < val_proxy.size(); ++i) {
      const bool pred = val_proxy[i] >= threshold;
      if (pred && val_truth[i]) ++tp;
      if (pred && !val_truth[i]) ++fp;
      if (!pred && val_truth[i]) ++fn;
    }
    const double f1 = F1FromCounts(tp, fp, fn);
    if (f1 > best_f1) {
      best_f1 = f1;
      result.threshold = threshold;
    }
  }
  result.validation_f1 = std::max(best_f1, 0.0);

  for (size_t i = 0; i < n; ++i) {
    if (proxy_scores[i] >= result.threshold) result.selected.push_back(i);
  }
  return result;
}

AggregationResult ProxyOnlyAggregate(const std::vector<double>& proxy_scores) {
  AggregationResult result;
  if (proxy_scores.empty()) return result;
  result.estimate = Mean(proxy_scores);
  const auto [lo, hi] =
      std::minmax_element(proxy_scores.begin(), proxy_scores.end());
  // Trivial range bound on the proxy mean itself; says nothing about the
  // distance between proxy and truth, hence converged=false.
  result.half_width = (*hi - *lo) / 2.0;
  result.converged = false;
  return result;
}

PredicateAggregationResult ProxyOnlyPredicateAggregate(
    const std::vector<double>& predicate_proxy,
    const std::vector<double>& statistic_proxy) {
  TASTI_CHECK(predicate_proxy.size() == statistic_proxy.size(),
              "proxy vectors must be the same length");
  PredicateAggregationResult result;
  double mass = 0.0, weighted = 0.0;
  for (size_t i = 0; i < predicate_proxy.size(); ++i) {
    const double w = std::clamp(predicate_proxy[i], 0.0, 1.0);
    mass += w;
    weighted += w * statistic_proxy[i];
  }
  if (mass > 1e-12) result.estimate = weighted / mass;
  result.converged = false;
  return result;
}

namespace {

/// Selection result from a proxy threshold: every record whose clipped
/// proxy clears it.
SupgResult SelectAtOrAbove(const std::vector<double>& proxy_scores,
                           double threshold) {
  SupgResult result;
  result.threshold = threshold;
  for (size_t i = 0; i < proxy_scores.size(); ++i) {
    if (std::clamp(proxy_scores[i], 0.0, 1.0) >= threshold) {
      result.selected.push_back(i);
    }
  }
  return result;
}

}  // namespace

SupgResult ProxyOnlyRecallSelect(const std::vector<double>& proxy_scores,
                                 double recall_target) {
  // Largest threshold retaining `recall_target` of the clipped-proxy mass:
  // sort descending and accumulate until the target mass is covered.
  std::vector<double> clipped(proxy_scores.size());
  double total = 0.0;
  for (size_t i = 0; i < proxy_scores.size(); ++i) {
    clipped[i] = std::clamp(proxy_scores[i], 0.0, 1.0);
    total += clipped[i];
  }
  double threshold = 0.0;
  if (total > 1e-12) {
    std::vector<double> sorted = clipped;
    std::sort(sorted.begin(), sorted.end(), std::greater<double>());
    double covered = 0.0;
    for (double value : sorted) {
      covered += value;
      threshold = value;
      if (covered >= recall_target * total) break;
    }
  }
  return SelectAtOrAbove(proxy_scores, threshold);
}

SupgResult ProxyOnlyPrecisionSelect(const std::vector<double>& proxy_scores,
                                    double precision_target) {
  // Largest descending-proxy prefix whose mean clipped proxy stays at or
  // above the target (the proxy standing in for the match probability).
  std::vector<double> sorted(proxy_scores.size());
  for (size_t i = 0; i < proxy_scores.size(); ++i) {
    sorted[i] = std::clamp(proxy_scores[i], 0.0, 1.0);
  }
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  double threshold = 1.0 + 1e-9;  // empty-set fallback
  double sum = 0.0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    sum += sorted[i];
    if (sum / static_cast<double>(i + 1) >= precision_target) {
      threshold = sorted[i];
    } else {
      break;
    }
  }
  return SelectAtOrAbove(proxy_scores, threshold);
}

ThresholdSelectResult ProxyOnlyThresholdSelect(
    const std::vector<double>& proxy_scores) {
  ThresholdSelectResult result;
  if (proxy_scores.empty()) return result;
  const auto [lo, hi] =
      std::minmax_element(proxy_scores.begin(), proxy_scores.end());
  result.threshold = (*lo + *hi) / 2.0;
  for (size_t i = 0; i < proxy_scores.size(); ++i) {
    if (proxy_scores[i] >= result.threshold) result.selected.push_back(i);
  }
  return result;
}

LimitResult ProxyOnlyLimit(const std::vector<double>& ranking_scores,
                           size_t want) {
  LimitResult result;
  std::vector<size_t> order(ranking_scores.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return ranking_scores[a] > ranking_scores[b];
  });
  const size_t take = std::min(want, order.size());
  result.found.assign(order.begin(), order.begin() + take);
  // Nothing was oracle-verified: never claim satisfaction.
  result.satisfied = false;
  return result;
}

double F1Score(const std::vector<size_t>& selected,
               const std::vector<double>& exact_scores) {
  std::vector<bool> chosen(exact_scores.size(), false);
  for (size_t record : selected) {
    TASTI_CHECK(record < exact_scores.size(), "selected record out of range");
    chosen[record] = true;
  }
  size_t tp = 0, fp = 0, fn = 0;
  for (size_t i = 0; i < exact_scores.size(); ++i) {
    const bool truth = exact_scores[i] >= 0.5;
    if (chosen[i] && truth) ++tp;
    if (chosen[i] && !truth) ++fp;
    if (!chosen[i] && truth) ++fn;
  }
  return F1FromCounts(tp, fp, fn);
}

}  // namespace tasti::queries
