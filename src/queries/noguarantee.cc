#include "queries/noguarantee.h"

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
