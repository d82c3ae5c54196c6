// Unit tests for queries/: EBS aggregation (guarantees + control-variate
// speedup), SUPG recall-target selection, limit queries, and no-guarantee
// variants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/scorer.h"
#include "data/dataset.h"
#include "labeler/labeler.h"
#include "queries/aggregation.h"
#include "queries/limit.h"
#include "queries/noguarantee.h"
#include "queries/predicate_aggregation.h"
#include "queries/supg.h"
#include "util/random.h"
#include "util/stats.h"

namespace tasti::queries {
namespace {

data::Dataset VideoDataset(size_t n = 6000, uint64_t seed = 21) {
  data::DatasetOptions opts;
  opts.num_records = n;
  opts.seed = seed;
  return data::MakeNightStreet(opts);
}

// Synthetic proxies with controllable quality: proxy = truth + noise.
std::vector<double> NoisyProxy(const std::vector<double>& truth, double noise,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<double> proxy(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    proxy[i] = truth[i] + noise * rng.Normal();
  }
  return proxy;
}

std::vector<double> Truth(const data::Dataset& ds, const core::Scorer& scorer) {
  std::vector<double> out;
  out.reserve(ds.size());
  for (const auto& label : ds.ground_truth) out.push_back(scorer.Score(label));
  return out;
}

// ---------- Aggregation ----------

TEST(AggregationTest, EstimateWithinTarget) {
  data::Dataset ds = VideoDataset();
  core::CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> truth = Truth(ds, scorer);
  const double true_mean = Mean(truth);

  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  AggregationOptions opts;
  opts.error_target = 0.05;
  opts.seed = 1;
  AggregationResult result =
      TryEstimateMean(NoisyProxy(truth, 0.3, 2), &oracle, scorer, opts).value();
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.estimate, true_mean, 3 * opts.error_target);
  EXPECT_EQ(result.labeler_invocations, oracle.invocations());
}

TEST(AggregationTest, BetterProxyUsesFewerInvocations) {
  data::Dataset ds = VideoDataset();
  core::CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> truth = Truth(ds, scorer);
  AggregationOptions opts;
  opts.error_target = 0.03;
  opts.seed = 3;

  labeler::SimulatedLabeler good_labeler(&ds);
  labeler::FallibleAdapter good_oracle(&good_labeler);
  AggregationResult good =
      TryEstimateMean(NoisyProxy(truth, 0.05, 4), &good_oracle, scorer, opts)
          .value();
  labeler::SimulatedLabeler bad_labeler(&ds);
  labeler::FallibleAdapter bad_oracle(&bad_labeler);
  AggregationResult bad =
      TryEstimateMean(NoisyProxy(truth, 3.0, 4), &bad_oracle, scorer, opts)
          .value();
  EXPECT_LT(good.labeler_invocations, bad.labeler_invocations);
  EXPECT_GT(good.proxy_correlation, bad.proxy_correlation);
}

TEST(AggregationTest, ControlVariateBeatsNone) {
  data::Dataset ds = VideoDataset();
  core::CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> truth = Truth(ds, scorer);
  const std::vector<double> proxy = NoisyProxy(truth, 0.1, 5);
  AggregationOptions opts;
  // Loose enough that the shared range-term floor does not exhaust the
  // dataset for either method; the variance term then separates them.
  opts.error_target = 0.1;
  opts.seed = 6;

  labeler::SimulatedLabeler with_labeler(&ds);
  labeler::FallibleAdapter with_oracle(&with_labeler);
  AggregationResult with_cv =
      TryEstimateMean(proxy, &with_oracle, scorer, opts).value();

  AggregationOptions no_cv_opts = opts;
  no_cv_opts.use_control_variate = false;
  labeler::SimulatedLabeler without_labeler(&ds);
  labeler::FallibleAdapter without_oracle(&without_labeler);
  AggregationResult no_cv =
      TryEstimateMean(proxy, &without_oracle, scorer, no_cv_opts).value();
  EXPECT_LT(with_cv.labeler_invocations, no_cv.labeler_invocations);
}

TEST(AggregationTest, GuaranteeHoldsAcrossTrials) {
  // The (estimate, target) pair should satisfy |est - truth| <= target in
  // at least ~confidence of independent trials.
  data::Dataset ds = VideoDataset(4000);
  core::CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> truth = Truth(ds, scorer);
  const double true_mean = Mean(truth);
  const std::vector<double> proxy = NoisyProxy(truth, 0.5, 7);

  int within = 0;
  const int trials = 40;
  AggregationOptions opts;
  opts.error_target = 0.05;
  opts.confidence = 0.95;
  for (int t = 0; t < trials; ++t) {
    labeler::SimulatedLabeler simulated(&ds);
    labeler::FallibleAdapter oracle(&simulated);
    opts.seed = 100 + t;
    AggregationResult result =
        TryEstimateMean(proxy, &oracle, scorer, opts).value();
    if (std::abs(result.estimate - true_mean) <= opts.error_target) ++within;
  }
  EXPECT_GE(within, static_cast<int>(trials * 0.9));
}

TEST(AggregationTest, ExhaustiveFallbackIsExact) {
  data::Dataset ds = VideoDataset(500);
  core::CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> truth = Truth(ds, scorer);
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  AggregationOptions opts;
  opts.error_target = 1e-9;  // unattainable: forces exhaustion
  opts.seed = 8;
  AggregationResult result =
      TryEstimateMean(NoisyProxy(truth, 0.1, 9), &oracle, scorer, opts).value();
  EXPECT_EQ(result.labeler_invocations, ds.size());
  EXPECT_NEAR(result.estimate, Mean(truth), 1e-6);
  EXPECT_TRUE(result.converged);  // exhaustive pass is exact
}

TEST(AggregationTest, RespectsMaxSamples) {
  data::Dataset ds = VideoDataset(2000);
  core::CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> truth = Truth(ds, scorer);
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  AggregationOptions opts;
  opts.error_target = 1e-9;
  opts.max_samples = 300;
  opts.seed = 10;
  AggregationResult result =
      TryEstimateMean(NoisyProxy(truth, 0.1, 11), &oracle, scorer, opts)
          .value();
  EXPECT_EQ(result.labeler_invocations, 300u);
  EXPECT_FALSE(result.converged);
}

// ---------- SUPG ----------

TEST(SupgTest, MeetsRecallTargetWithGoodProxy) {
  data::Dataset ds = VideoDataset();
  core::PresenceScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> truth = Truth(ds, scorer);
  // Smooth noisy probability proxy.
  Rng rng(12);
  std::vector<double> proxy(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    proxy[i] = std::clamp(truth[i] * 0.8 + 0.1 + 0.05 * rng.Normal(), 0.0, 1.0);
  }
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  SupgOptions opts;
  opts.budget = 800;
  opts.seed = 13;
  SupgResult result = TrySupgRecallSelect(proxy, &oracle, scorer, opts).value();
  EXPECT_EQ(result.labeler_invocations, 800u);
  EXPECT_GE(AchievedRecall(result.selected, truth), opts.recall_target);
}

TEST(SupgTest, RecallGuaranteeAcrossTrials) {
  data::Dataset ds = VideoDataset(4000);
  core::PresenceScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> truth = Truth(ds, scorer);
  Rng rng(14);
  std::vector<double> proxy(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    proxy[i] = std::clamp(truth[i] * 0.7 + 0.15 + 0.1 * rng.Normal(), 0.0, 1.0);
  }
  int met = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    labeler::SimulatedLabeler simulated(&ds);
    labeler::FallibleAdapter oracle(&simulated);
    SupgOptions opts;
    opts.budget = 600;
    opts.seed = 500 + t;
    SupgResult result =
        TrySupgRecallSelect(proxy, &oracle, scorer, opts).value();
    if (AchievedRecall(result.selected, truth) >= opts.recall_target) ++met;
  }
  EXPECT_GE(met, static_cast<int>(trials * 0.9));
}

TEST(SupgTest, BetterProxyLowersFalsePositiveRate) {
  data::Dataset ds = VideoDataset();
  core::PresenceScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> truth = Truth(ds, scorer);
  Rng rng(15);
  std::vector<double> sharp(truth.size()), fuzzy(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    sharp[i] = std::clamp(truth[i] * 0.9 + 0.05 + 0.02 * rng.Normal(), 0.0, 1.0);
    fuzzy[i] = std::clamp(truth[i] * 0.2 + 0.4 + 0.2 * rng.Normal(), 0.0, 1.0);
  }
  labeler::SimulatedLabeler labeler_a(&ds);
  labeler::FallibleAdapter oracle_a(&labeler_a);
  labeler::SimulatedLabeler labeler_b(&ds);
  labeler::FallibleAdapter oracle_b(&labeler_b);
  SupgOptions opts;
  opts.budget = 800;
  opts.seed = 16;
  SupgResult sharp_result =
      TrySupgRecallSelect(sharp, &oracle_a, scorer, opts).value();
  SupgResult fuzzy_result =
      TrySupgRecallSelect(fuzzy, &oracle_b, scorer, opts).value();
  EXPECT_LT(FalsePositiveRate(sharp_result.selected, truth),
            FalsePositiveRate(fuzzy_result.selected, truth));
}

TEST(SupgTest, HandlesNoPositivesGracefully) {
  data::Dataset ds = VideoDataset(1000);
  // A predicate that never matches.
  core::LambdaScorer never([](const data::LabelerOutput&) { return 0.0; }, true,
                           "never");
  std::vector<double> proxy(ds.size(), 0.1);
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  SupgOptions opts;
  opts.budget = 100;
  opts.seed = 17;
  SupgResult result = TrySupgRecallSelect(proxy, &oracle, never, opts).value();
  // With no positives, recall is trivially satisfied; the selection may be
  // large but the call must not crash and FPR is well defined.
  EXPECT_EQ(AchievedRecall(result.selected, std::vector<double>(ds.size(), 0.0)),
            1.0);
}

TEST(SupgMetricsTest, FprAndRecallDefinitions) {
  std::vector<double> truth = {1, 0, 1, 0, 0};
  std::vector<size_t> selected = {0, 1, 3};
  // 1 true positive of 2 total; 2 false of 3 selected.
  EXPECT_NEAR(AchievedRecall(selected, truth), 0.5, 1e-12);
  EXPECT_NEAR(FalsePositiveRate(selected, truth), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(FalsePositiveRate({}, truth), 0.0);
  EXPECT_EQ(AchievedRecall({}, std::vector<double>{0, 0}), 1.0);
}

// ---------- Precision-target SUPG ----------

TEST(SupgPrecisionTest, MeetsPrecisionTarget) {
  data::Dataset ds = VideoDataset();
  core::PresenceScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> truth = Truth(ds, scorer);
  Rng rng(41);
  std::vector<double> proxy(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    proxy[i] = std::clamp(truth[i] * 0.7 + 0.15 + 0.1 * rng.Normal(), 0.0, 1.0);
  }
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  SupgPrecisionOptions opts;
  opts.precision_target = 0.9;
  opts.budget = 800;
  opts.seed = 42;
  SupgResult result =
      TrySupgPrecisionSelect(proxy, &oracle, scorer, opts).value();
  EXPECT_EQ(result.labeler_invocations, 800u);
  EXPECT_GE(AchievedPrecision(result.selected, truth), opts.precision_target);
  EXPECT_FALSE(result.selected.empty());
}

TEST(SupgPrecisionTest, PrecisionGuaranteeAcrossTrials) {
  data::Dataset ds = VideoDataset(4000);
  core::PresenceScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> truth = Truth(ds, scorer);
  Rng rng(43);
  std::vector<double> proxy(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    proxy[i] = std::clamp(truth[i] * 0.6 + 0.2 + 0.12 * rng.Normal(), 0.0, 1.0);
  }
  int met = 0;
  const int trials = 25;
  for (int t = 0; t < trials; ++t) {
    labeler::SimulatedLabeler simulated(&ds);
    labeler::FallibleAdapter oracle(&simulated);
    SupgPrecisionOptions opts;
    opts.budget = 500;
    opts.seed = 700 + t;
    SupgResult result =
        TrySupgPrecisionSelect(proxy, &oracle, scorer, opts).value();
    if (AchievedPrecision(result.selected, truth) >= opts.precision_target) {
      ++met;
    }
  }
  EXPECT_GE(met, static_cast<int>(trials * 0.9));
}

TEST(SupgPrecisionTest, BetterProxyReturnsMoreRecords) {
  // Subject to the same precision target, sharper proxies admit a lower
  // threshold and therefore higher recall.
  data::Dataset ds = VideoDataset();
  core::PresenceScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> truth = Truth(ds, scorer);
  Rng rng(44);
  std::vector<double> sharp(truth.size()), fuzzy(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    sharp[i] = std::clamp(truth[i] * 0.9 + 0.05 + 0.02 * rng.Normal(), 0.0, 1.0);
    fuzzy[i] = std::clamp(truth[i] * 0.3 + 0.35 + 0.25 * rng.Normal(), 0.0, 1.0);
  }
  labeler::SimulatedLabeler labeler_a(&ds);
  labeler::FallibleAdapter oracle_a(&labeler_a);
  labeler::SimulatedLabeler labeler_b(&ds);
  labeler::FallibleAdapter oracle_b(&labeler_b);
  SupgPrecisionOptions opts;
  opts.budget = 800;
  opts.seed = 45;
  SupgResult sharp_result =
      TrySupgPrecisionSelect(sharp, &oracle_a, scorer, opts).value();
  SupgResult fuzzy_result =
      TrySupgPrecisionSelect(fuzzy, &oracle_b, scorer, opts).value();
  EXPECT_GE(queries::AchievedRecall(sharp_result.selected, truth),
            queries::AchievedRecall(fuzzy_result.selected, truth));
}

TEST(SupgPrecisionTest, AchievedPrecisionDefinition) {
  std::vector<double> truth = {1, 0, 1, 0};
  EXPECT_DOUBLE_EQ(AchievedPrecision({0, 1}, truth), 0.5);
  EXPECT_DOUBLE_EQ(AchievedPrecision({0, 2}, truth), 1.0);
  EXPECT_DOUBLE_EQ(AchievedPrecision({}, truth), 1.0);
}

// ---------- Predicate aggregation ----------

TEST(PredicateAggregationTest, EstimatesConditionalMean) {
  data::Dataset ds = VideoDataset();
  core::PresenceScorer predicate(data::ObjectClass::kCar);
  core::MeanXScorer statistic(data::ObjectClass::kCar);
  const std::vector<double> pred_truth = Truth(ds, predicate);
  // Ground-truth conditional mean.
  double truth_sum = 0.0;
  size_t truth_count = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    if (pred_truth[i] >= 0.5) {
      truth_sum += statistic.Score(ds.ground_truth[i]);
      ++truth_count;
    }
  }
  ASSERT_GT(truth_count, 0u);
  const double truth_mean = truth_sum / truth_count;

  Rng rng(46);
  std::vector<double> proxy(pred_truth.size());
  for (size_t i = 0; i < pred_truth.size(); ++i) {
    proxy[i] =
        std::clamp(pred_truth[i] * 0.8 + 0.1 + 0.05 * rng.Normal(), 0.0, 1.0);
  }
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  PredicateAggregationOptions opts;
  // The conservative ratio interval needs a loose target at 6k records.
  opts.error_target = 0.08;
  opts.seed = 47;
  PredicateAggregationResult result = TryEstimateMeanWithPredicate(
      proxy, &oracle, predicate, statistic, opts).value();
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.estimate, truth_mean, 3 * opts.error_target);
  EXPECT_GT(result.sample_matches, 0u);
  EXPECT_EQ(result.labeler_invocations, oracle.invocations());
}

TEST(PredicateAggregationTest, GoodProxyNeedsFewerSamplesOnRarePredicate) {
  data::Dataset ds = VideoDataset(10000, 24);
  core::AtLeastCountScorer predicate(data::ObjectClass::kCar, 2);
  core::CountScorer statistic(data::ObjectClass::kCar);
  const std::vector<double> pred_truth = Truth(ds, predicate);
  Rng rng(48);
  std::vector<double> good(pred_truth.size());
  for (size_t i = 0; i < pred_truth.size(); ++i) {
    good[i] =
        std::clamp(pred_truth[i] * 0.9 + 0.02 + 0.02 * rng.Normal(), 0.0, 1.0);
  }
  const std::vector<double> uninformative(pred_truth.size(), 0.5);

  labeler::SimulatedLabeler labeler_a(&ds);
  labeler::FallibleAdapter oracle_a(&labeler_a);
  labeler::SimulatedLabeler labeler_b(&ds);
  labeler::FallibleAdapter oracle_b(&labeler_b);
  PredicateAggregationOptions opts;
  opts.error_target = 0.1;
  opts.seed = 49;
  PredicateAggregationResult with_proxy = TryEstimateMeanWithPredicate(
      good, &oracle_a, predicate, statistic, opts).value();
  PredicateAggregationResult without = TryEstimateMeanWithPredicate(
      uninformative, &oracle_b, predicate, statistic, opts).value();
  EXPECT_LE(with_proxy.labeler_invocations, without.labeler_invocations);
}

TEST(PredicateAggregationTest, RespectsBudgetCap) {
  data::Dataset ds = VideoDataset(2000);
  core::PresenceScorer predicate(data::ObjectClass::kCar);
  core::CountScorer statistic(data::ObjectClass::kCar);
  std::vector<double> proxy(ds.size(), 0.5);
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  PredicateAggregationOptions opts;
  opts.error_target = 1e-9;
  opts.max_samples = 250;
  opts.seed = 50;
  PredicateAggregationResult result = TryEstimateMeanWithPredicate(
      proxy, &oracle, predicate, statistic, opts).value();
  EXPECT_EQ(result.labeler_invocations, 250u);
  EXPECT_FALSE(result.converged);
}

// ---------- Limit ----------

TEST(LimitTest, PerfectRankingIsOptimal) {
  data::Dataset ds = VideoDataset();
  core::AtLeastCountScorer predicate(data::ObjectClass::kCar, 3);
  const std::vector<double> truth = Truth(ds, predicate);
  const size_t total_matches = static_cast<size_t>(
      std::count_if(truth.begin(), truth.end(), [](double v) { return v >= 0.5; }));
  ASSERT_GE(total_matches, 5u) << "dataset lacks rare events for this test";

  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  LimitOptions opts;
  opts.want = 5;
  LimitResult result = TryLimitQuery(truth, &oracle, predicate, opts).value();
  EXPECT_TRUE(result.satisfied);
  // With a perfect ranking, exactly `want` records are examined.
  EXPECT_EQ(result.labeler_invocations, 5u);
  EXPECT_EQ(result.found.size(), 5u);
}

TEST(LimitTest, RandomRankingIsMuchWorse) {
  data::Dataset ds = VideoDataset(20000, 22);
  core::AtLeastCountScorer predicate(data::ObjectClass::kCar, 4);
  const std::vector<double> truth = Truth(ds, predicate);
  const size_t matches = static_cast<size_t>(
      std::count_if(truth.begin(), truth.end(), [](double v) { return v >= 0.5; }));
  ASSERT_GE(matches, 5u) << "dataset lacks rare events for this test";
  // The comparison is only meaningful when the event is actually rare.
  ASSERT_LT(static_cast<double>(matches) / ds.size(), 0.05);

  Rng rng(18);
  std::vector<double> random_scores(ds.size());
  for (auto& s : random_scores) s = rng.Uniform();

  labeler::SimulatedLabeler labeler_good(&ds);
  labeler::FallibleAdapter oracle_good(&labeler_good);
  LimitOptions opts;
  opts.want = 5;
  LimitResult good =
      TryLimitQuery(truth, &oracle_good, predicate, opts).value();
  labeler::SimulatedLabeler labeler_bad(&ds);
  labeler::FallibleAdapter oracle_bad(&labeler_bad);
  LimitResult bad =
      TryLimitQuery(random_scores, &oracle_bad, predicate, opts).value();
  EXPECT_LT(good.labeler_invocations * 5, bad.labeler_invocations);
}

TEST(LimitTest, FoundRecordsActuallyMatch) {
  data::Dataset ds = VideoDataset();
  core::AtLeastCountScorer predicate(data::ObjectClass::kCar, 2);
  const std::vector<double> truth = Truth(ds, predicate);
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  LimitOptions opts;
  opts.want = 8;
  LimitResult result = TryLimitQuery(truth, &oracle, predicate, opts).value();
  for (size_t record : result.found) {
    EXPECT_GE(predicate.Score(ds.ground_truth[record]), 0.5);
  }
}

TEST(LimitTest, BudgetCapStopsScan) {
  data::Dataset ds = VideoDataset(1000);
  // Impossible predicate: scan must stop at the cap, unsatisfied.
  core::LambdaScorer never([](const data::LabelerOutput&) { return 0.0; }, true,
                           "never");
  std::vector<double> scores(ds.size(), 0.5);
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  LimitOptions opts;
  opts.want = 1;
  opts.max_invocations = 50;
  LimitResult result = TryLimitQuery(scores, &oracle, never, opts).value();
  EXPECT_FALSE(result.satisfied);
  EXPECT_EQ(result.labeler_invocations, 50u);
  EXPECT_TRUE(result.found.empty());
}

// ---------- No-guarantee queries ----------

TEST(NoGuaranteeTest, DirectAggregateIsProxyMean) {
  std::vector<double> proxy = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(DirectAggregate(proxy), 2.0);
}

TEST(NoGuaranteeTest, PercentErrorDefinition) {
  EXPECT_NEAR(PercentError(1.1, 1.0), 0.1, 1e-12);
  EXPECT_NEAR(PercentError(0.9, 1.0), 0.1, 1e-12);
  // Near-zero truth: absolute fallback.
  EXPECT_NEAR(PercentError(0.05, 0.0), 0.05, 1e-12);
}

TEST(NoGuaranteeTest, ThresholdSelectFindsSeparatingThreshold) {
  data::Dataset ds = VideoDataset();
  core::PresenceScorer predicate(data::ObjectClass::kCar);
  const std::vector<double> truth = Truth(ds, predicate);
  // A clean proxy: positives ~0.9, negatives ~0.1.
  Rng rng(19);
  std::vector<double> proxy(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    proxy[i] = std::clamp(truth[i] * 0.8 + 0.1 + 0.05 * rng.Normal(), 0.0, 1.0);
  }
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  ThresholdSelectOptions opts;
  opts.validation_budget = 400;
  opts.seed = 20;
  ThresholdSelectResult result =
      TryThresholdSelect(proxy, &oracle, predicate, opts).value();
  EXPECT_EQ(result.labeler_invocations, 400u);
  EXPECT_GT(F1Score(result.selected, truth), 0.9);
  EXPECT_GT(result.validation_f1, 0.9);
}

TEST(NoGuaranteeTest, F1ScoreDefinition) {
  std::vector<double> truth = {1, 1, 0, 0};
  // Select records 0 and 2: tp=1, fp=1, fn=1 -> F1 = 2/4 = 0.5.
  EXPECT_DOUBLE_EQ(F1Score({0, 2}, truth), 0.5);
  EXPECT_DOUBLE_EQ(F1Score({0, 1}, truth), 1.0);
  EXPECT_DOUBLE_EQ(F1Score({}, truth), 0.0);
}

}  // namespace
}  // namespace tasti::queries
