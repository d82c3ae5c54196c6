#include "queries/supg.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_set>
#include <utility>

#include "obs/trace.h"
#include "queries/sampling.h"
#include "util/random.h"
#include "util/status.h"

namespace tasti::queries {

Result<SupgResult> TrySupgRecallSelect(const std::vector<double>& proxy_scores,
                                       labeler::FallibleLabeler* oracle,
                                       const core::Scorer& scorer,
                                       const SupgOptions& options) {
  TASTI_CHECK(oracle != nullptr, "TrySupgRecallSelect requires an oracle");
  if (proxy_scores.size() != oracle->num_records()) {
    return Status::FailedPrecondition(
        "supg: proxy scores must cover every record");
  }
  TASTI_CHECK(options.recall_target > 0.0 && options.recall_target <= 1.0,
              "recall target must be in (0, 1]");
  TASTI_CHECK(options.budget > 0, "budget must be positive");

  const size_t n = proxy_scores.size();
  const size_t budget = std::min(options.budget, n);
  const double delta = 1.0 - options.confidence;
  Rng rng(options.seed);

  // Importance weights proportional to sqrt(proxy), floored so that
  // zero-proxy records retain sampling mass (they may be missed positives).
  std::vector<double> weights(n);
  double total_weight = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double p = std::clamp(proxy_scores[i], 0.0, 1.0);
    weights[i] = std::sqrt(std::max(p, 1e-4));
    total_weight += weights[i];
  }

  // Sample `budget` records with replacement proportionally to weights
  // (alias-free inverse-CDF over a prefix-sum array).
  std::vector<double> prefix(n);
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += weights[i];
    prefix[i] = acc;
  }
  struct Sampled {
    size_t record;
    double proxy;
    double importance;  // (1/n) / (w_i / total_weight)
    bool positive;
  };
  std::vector<Sampled> samples;
  samples.reserve(budget);
  size_t failed_calls = 0;
  size_t attempted = 0;
  bool deadline_hit = false;
  {
    TASTI_SPAN("query.supg.sample");
    // The whole sample is fixed before the first label.
    const std::vector<size_t> draws =
        DrawWithReplacement(prefix, total_weight, budget, &rng);
    std::vector<Result<data::LabelerOutput>> labels =
        LabelInRuns(oracle, draws, options.deadline);
    attempted = labels.size();
    // Deadline boundary: fit the threshold to the samples so far.
    deadline_hit = attempted < budget;
    for (size_t i = 0; i < attempted; ++i) {
      if (!labels[i].ok()) {
        // Drop the sample: the estimate runs on a smaller effective
        // sample, which the confidence inflation already covers.
        ++failed_calls;
        continue;
      }
      const size_t record = draws[i];
      Sampled sample;
      sample.record = record;
      sample.proxy = std::clamp(proxy_scores[record], 0.0, 1.0);
      sample.importance =
          (1.0 / static_cast<double>(n)) / (weights[record] / total_weight);
      sample.positive = scorer.Score(*labels[i]) >= 0.5;
      samples.push_back(sample);
    }
  }
  if (attempted == 0 && deadline_hit) {
    return Status::DeadlineExceeded(
        "supg: deadline expired before any sample was taken");
  }
  if (failed_calls == attempted) {
    return Status::Unavailable("supg: every oracle call failed (" +
                               std::to_string(failed_calls) + " attempts)");
  }

  TASTI_SPAN("query.supg.threshold");
  // Importance-weighted positive mass, overall and below each candidate
  // threshold. Candidates are the distinct sampled proxy values.
  std::sort(samples.begin(), samples.end(),
            [](const Sampled& a, const Sampled& b) { return a.proxy < b.proxy; });
  double total_positive_mass = 0.0;
  double sum_w = 0.0, sum_w2 = 0.0;
  size_t positives = 0;
  for (const Sampled& sample : samples) {
    if (sample.positive) {
      total_positive_mass += sample.importance;
      sum_w += sample.importance;
      sum_w2 += sample.importance * sample.importance;
      ++positives;
    }
  }

  SupgResult result;
  result.labeler_invocations = attempted;
  result.sample_positives = positives;
  result.failed_oracle_calls = failed_calls;
  result.requested_samples = budget;
  result.achieved_samples = samples.size();
  result.deadline_hit = deadline_hit;

  double threshold = 0.0;
  if (total_positive_mass > 0.0) {
    // Confidence inflation of the recall target via the effective sample
    // size of the positive mass (Hoeffding-style margin) — the spirit of
    // SUPG's conservative threshold choice.
    const double ess = sum_w2 > 0.0 ? (sum_w * sum_w) / sum_w2 : 1.0;
    const double margin = std::sqrt(std::log(1.0 / delta) / (2.0 * ess));
    const double inflated_target = std::min(1.0, options.recall_target + margin);

    // Walk candidate thresholds from high to low until the estimated
    // recall (positive mass at or above the threshold) clears the target.
    // Candidates are the distinct sampled proxy values ascending, each
    // paired with the cumulative positive mass strictly below it.
    threshold = 0.0;
    std::vector<std::pair<double, double>> below;  // (threshold, missed mass)
    double run = 0.0;
    for (size_t i = 0; i < samples.size(); ++i) {
      if (i > 0 && samples[i].proxy != samples[i - 1].proxy) {
        below.emplace_back(samples[i].proxy, run);
      }
      if (samples[i].positive) run += samples[i].importance;
    }
    for (auto it = below.rbegin(); it != below.rend(); ++it) {
      const double recall = 1.0 - it->second / total_positive_mass;
      if (recall >= inflated_target) {
        threshold = it->first;
        break;
      }
    }
  }
  result.threshold = threshold;

  // Selected set: all records at or above the threshold, plus sampled
  // positives (they are certain matches).
  std::unordered_set<size_t> chosen;
  for (size_t i = 0; i < n; ++i) {
    if (std::clamp(proxy_scores[i], 0.0, 1.0) >= threshold) chosen.insert(i);
  }
  for (const Sampled& sample : samples) {
    if (sample.positive) chosen.insert(sample.record);
  }
  result.selected.assign(chosen.begin(), chosen.end());
  std::sort(result.selected.begin(), result.selected.end());
  return result;
}

Result<SupgResult> TrySupgPrecisionSelect(
    const std::vector<double>& proxy_scores, labeler::FallibleLabeler* oracle,
    const core::Scorer& scorer, const SupgPrecisionOptions& options) {
  TASTI_CHECK(oracle != nullptr, "TrySupgPrecisionSelect requires an oracle");
  if (proxy_scores.size() != oracle->num_records()) {
    return Status::FailedPrecondition(
        "supg: proxy scores must cover every record");
  }
  TASTI_CHECK(options.precision_target > 0.0 && options.precision_target <= 1.0,
              "precision target must be in (0, 1]");
  TASTI_CHECK(options.budget > 0, "budget must be positive");

  const size_t n = proxy_scores.size();
  const size_t budget = std::min(options.budget, n);
  const double delta = 1.0 - options.confidence;
  Rng rng(options.seed);

  // Sample proportionally to the proxy: precision estimation only matters
  // inside candidate sets, which are high-proxy regions.
  std::vector<double> weights(n);
  double total_weight = 0.0;
  for (size_t i = 0; i < n; ++i) {
    weights[i] = std::max(std::clamp(proxy_scores[i], 0.0, 1.0), 1e-4);
    total_weight += weights[i];
  }
  std::vector<double> prefix(n);
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += weights[i];
    prefix[i] = acc;
  }

  struct Sampled {
    size_t record;
    double proxy;
    double importance;
    bool positive;
  };
  std::vector<Sampled> samples;
  samples.reserve(budget);
  size_t failed_calls = 0;
  size_t attempted = 0;
  bool deadline_hit = false;
  {
    TASTI_SPAN("query.supg.sample");
    // The whole sample is fixed before the first label.
    const std::vector<size_t> draws =
        DrawWithReplacement(prefix, total_weight, budget, &rng);
    std::vector<Result<data::LabelerOutput>> labels =
        LabelInRuns(oracle, draws, options.deadline);
    attempted = labels.size();
    // Deadline boundary: fit the threshold to the samples so far.
    deadline_hit = attempted < budget;
    for (size_t i = 0; i < attempted; ++i) {
      if (!labels[i].ok()) {
        ++failed_calls;
        continue;
      }
      const size_t record = draws[i];
      samples.push_back({record, std::clamp(proxy_scores[record], 0.0, 1.0),
                         (1.0 / static_cast<double>(n)) /
                             (weights[record] / total_weight),
                         scorer.Score(*labels[i]) >= 0.5});
    }
  }
  if (attempted == 0 && deadline_hit) {
    return Status::DeadlineExceeded(
        "supg: deadline expired before any sample was taken");
  }
  if (failed_calls == attempted) {
    return Status::Unavailable("supg: every oracle call failed (" +
                               std::to_string(failed_calls) + " attempts)");
  }

  TASTI_SPAN("query.supg.threshold");
  // Walk candidate thresholds from high to low; keep the lowest threshold
  // whose importance-weighted precision above it clears the inflated
  // target. This maximizes the returned set (recall) subject to precision.
  std::sort(samples.begin(), samples.end(),
            [](const Sampled& a, const Sampled& b) { return a.proxy > b.proxy; });
  SupgResult result;
  result.labeler_invocations = attempted;
  result.failed_oracle_calls = failed_calls;
  result.requested_samples = budget;
  result.achieved_samples = samples.size();
  result.deadline_hit = deadline_hit;
  double threshold = 1.0 + 1e-9;  // empty set fallback
  double positive_mass = 0.0, total_mass = 0.0, total_mass2 = 0.0;
  size_t positives = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].positive) {
      positive_mass += samples[i].importance;
      ++positives;
    }
    total_mass += samples[i].importance;
    total_mass2 += samples[i].importance * samples[i].importance;
    // Candidate threshold at the end of each distinct proxy level.
    if (i + 1 < samples.size() && samples[i + 1].proxy == samples[i].proxy) {
      continue;
    }
    if (total_mass <= 0.0) continue;
    const double precision = positive_mass / total_mass;
    const double ess =
        total_mass2 > 0.0 ? (total_mass * total_mass) / total_mass2 : 1.0;
    const double margin = std::sqrt(std::log(1.0 / delta) / (2.0 * ess));
    if (precision - margin >= options.precision_target) {
      threshold = samples[i].proxy;
    }
  }
  result.threshold = threshold;
  result.sample_positives = positives;
  std::unordered_set<size_t> chosen;
  for (size_t i = 0; i < n; ++i) {
    if (std::clamp(proxy_scores[i], 0.0, 1.0) >= threshold) chosen.insert(i);
  }
  // Sampled positives are verified matches: adding them can only raise the
  // set's precision (and rescues the empty-set fallback when the bound
  // cannot clear at any threshold).
  for (const Sampled& sample : samples) {
    if (sample.positive) chosen.insert(sample.record);
  }
  result.selected.assign(chosen.begin(), chosen.end());
  std::sort(result.selected.begin(), result.selected.end());
  return result;
}

double FalsePositiveRate(const std::vector<size_t>& selected,
                         const std::vector<double>& exact_scores) {
  if (selected.empty()) return 0.0;
  size_t false_positives = 0;
  for (size_t record : selected) {
    TASTI_CHECK(record < exact_scores.size(), "selected record out of range");
    if (exact_scores[record] < 0.5) ++false_positives;
  }
  return static_cast<double>(false_positives) /
         static_cast<double>(selected.size());
}

double AchievedPrecision(const std::vector<size_t>& selected,
                         const std::vector<double>& exact_scores) {
  if (selected.empty()) return 1.0;
  size_t true_positives = 0;
  for (size_t record : selected) {
    TASTI_CHECK(record < exact_scores.size(), "selected record out of range");
    if (exact_scores[record] >= 0.5) ++true_positives;
  }
  return static_cast<double>(true_positives) /
         static_cast<double>(selected.size());
}

double AchievedRecall(const std::vector<size_t>& selected,
                      const std::vector<double>& exact_scores) {
  size_t total_positives = 0;
  for (double score : exact_scores) {
    if (score >= 0.5) ++total_positives;
  }
  if (total_positives == 0) return 1.0;
  size_t found = 0;
  for (size_t record : selected) {
    TASTI_CHECK(record < exact_scores.size(), "selected record out of range");
    if (exact_scores[record] >= 0.5) ++found;
  }
  return static_cast<double>(found) / static_cast<double>(total_positives);
}

}  // namespace tasti::queries
