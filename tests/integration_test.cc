// Integration tests: the full TASTI pipeline (dataset -> index -> proxy
// scores -> query processing) on downsized versions of the paper's
// workloads, asserting the paper's qualitative results hold end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baselines/per_query_proxy.h"
#include "baselines/uniform.h"
#include "core/index.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "data/dataset.h"
#include "eval/experiment.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"
#include "queries/aggregation.h"
#include "queries/limit.h"
#include "queries/noguarantee.h"
#include "queries/supg.h"
#include "util/stats.h"

namespace tasti {
namespace {

// One shared downsized environment for the whole test binary (index
// construction is the expensive part).
class TastiPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::ExperimentConfig config;
    config.video_records = 8000;
    config.video_train = 600;
    config.video_reps = 800;
    config.embedding_dim = 32;
    config.epochs = 15;
    config.proxy_train_budget = 1400;
    config.seed = 5;
    bench_ = new eval::Workbench(data::DatasetId::kNightStreet, config);
  }
  static void TearDownTestSuite() {
    delete bench_;
    bench_ = nullptr;
  }

  static eval::Workbench* bench_;
};

eval::Workbench* TastiPipelineTest::bench_ = nullptr;

TEST_F(TastiPipelineTest, IndexConstructionCheaperThanProxyTraining) {
  // Paper claim: TASTI's index needs up to 10x fewer labels than building
  // per-query training sets. At our scale we require a strict improvement
  // versus a single per-query proxy budget.
  const size_t tasti_cost = bench_->TastiTBuildInvocations();
  EXPECT_LT(tasti_cost, bench_->config().proxy_train_budget);
}

TEST_F(TastiPipelineTest, TrainedProxyCorrelatesBetterThanPretrained) {
  core::CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> truth = core::ExactScores(bench_->dataset(), scorer);
  const auto t_scores = bench_->TastiScores(scorer, /*trained=*/true);
  const auto pt_scores = bench_->TastiScores(scorer, /*trained=*/false);
  const double rho_t = PearsonCorrelation(t_scores, truth);
  const double rho_pt = PearsonCorrelation(pt_scores, truth);
  EXPECT_GT(rho_t, rho_pt);
  EXPECT_GT(rho_t, 0.6);
}

TEST_F(TastiPipelineTest, AggregationOrderingMatchesPaper) {
  // Figure 4 ordering: TASTI-T <= TASTI-PT (roughly) and both beat the
  // no-proxy baseline; TASTI-T also beats the per-query proxy.
  core::CountScorer scorer(data::ObjectClass::kCar);
  queries::AggregationOptions opts;
  // At 8k records an absolute error target comparable to the paper's 0.01
  // exceeds the dataset; 0.12 keeps every method in the sampling regime
  // (the shared range-term floor alone needs ~n >= 3*R*log/eps samples).
  opts.error_target = 0.12;
  opts.seed = 77;

  auto run = [&](const std::vector<double>& proxy) {
    auto oracle = bench_->MakeOracle();
    labeler::FallibleAdapter adapter(oracle.get());
    return queries::TryEstimateMean(proxy, &adapter, scorer, opts).value()
        .labeler_invocations;
  };
  const size_t tasti_t = run(bench_->TastiScores(scorer, true));
  const size_t per_query =
      run(bench_->PerQueryProxy(scorer).scores);
  auto no_proxy_oracle = bench_->MakeOracle();
  queries::AggregationOptions no_proxy_opts = opts;
  const size_t no_proxy =
      baselines::UniformAggregate(no_proxy_oracle.get(), scorer, no_proxy_opts)
          .labeler_invocations;

  EXPECT_LT(tasti_t, no_proxy);
  EXPECT_LE(tasti_t, per_query);
}

TEST_F(TastiPipelineTest, AggregationAccuracyHolds) {
  core::CountScorer scorer(data::ObjectClass::kCar);
  const double truth = Mean(core::ExactScores(bench_->dataset(), scorer));
  queries::AggregationOptions opts;
  opts.error_target = 0.12;
  opts.seed = 78;
  auto oracle = bench_->MakeOracle();
  labeler::FallibleAdapter adapter(oracle.get());
  queries::AggregationResult result = queries::TryEstimateMean(
      bench_->TastiScores(scorer, true), &adapter, scorer, opts).value();
  EXPECT_NEAR(result.estimate, truth, 3 * opts.error_target);
}

TEST_F(TastiPipelineTest, SupgSelectionBeatsPerQueryProxy) {
  core::PresenceScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> truth = core::ExactScores(bench_->dataset(), scorer);
  queries::SupgOptions opts;
  opts.budget = 500;
  opts.seed = 79;

  auto run_fpr = [&](const std::vector<double>& proxy) {
    auto oracle = bench_->MakeOracle();
    labeler::FallibleAdapter adapter(oracle.get());
    queries::SupgResult result =
        queries::TrySupgRecallSelect(proxy, &adapter, scorer, opts).value();
    EXPECT_GE(queries::AchievedRecall(result.selected, truth),
              opts.recall_target - 0.02);
    return queries::FalsePositiveRate(result.selected, truth);
  };
  const double tasti_fpr = run_fpr(bench_->TastiScores(scorer, true));
  const double per_query_fpr = run_fpr(bench_->PerQueryProxy(scorer, 1).scores);
  EXPECT_LE(tasti_fpr, per_query_fpr + 0.02);
}

TEST_F(TastiPipelineTest, LimitQueryFindsRareEventsQuickly) {
  core::AtLeastCountScorer predicate(data::ObjectClass::kCar, 4);
  const std::vector<double> truth =
      core::ExactScores(bench_->dataset(), predicate);
  const size_t matches = static_cast<size_t>(
      std::count_if(truth.begin(), truth.end(), [](double v) { return v >= 0.5; }));
  if (matches < 12) GTEST_SKIP() << "too few rare events at this scale";

  queries::LimitOptions opts;
  opts.want = 10;
  const auto tasti_rank =
      bench_->TastiScores(predicate, true, core::PropagationMode::kLimit);
  auto oracle_t = bench_->MakeOracle();
  labeler::FallibleAdapter adapter_t(oracle_t.get());
  queries::LimitResult tasti =
      queries::TryLimitQuery(tasti_rank, &adapter_t, predicate, opts).value();

  const auto pq = bench_->PerQueryProxy(predicate, 2);
  auto oracle_p = bench_->MakeOracle();
  labeler::FallibleAdapter adapter_p(oracle_p.get());
  queries::LimitResult per_query =
      queries::TryLimitQuery(pq.scores, &adapter_p, predicate, opts).value();

  EXPECT_TRUE(tasti.satisfied);
  // TASTI's ranking must examine far fewer records than random scanning
  // would in expectation (n / matches per hit).
  const double random_expected =
      static_cast<double>(bench_->dataset().size()) / matches * opts.want;
  EXPECT_LT(tasti.labeler_invocations, random_expected / 2);
  EXPECT_LE(tasti.labeler_invocations, per_query.labeler_invocations * 3);
}

TEST_F(TastiPipelineTest, CrackingImprovesSecondQuery) {
  // Run an aggregation query, fold its labeled records into the index, and
  // verify the proxy correlation does not degrade (Table 3's mechanism).
  core::CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> truth = core::ExactScores(bench_->dataset(), scorer);

  // Work on a copy of the index so other tests see the original.
  core::TastiIndex index = [&] {
    labeler::SimulatedLabeler oracle(&bench_->dataset());
    labeler::FallibleAdapter adapter(&oracle);
    labeler::CachingFallibleLabeler cache(&adapter);
    core::IndexOptions opts = bench_->BaseIndexOptions();
    opts.num_representatives = 400;  // deliberately small: room to improve
    return core::TastiIndex::Build(bench_->dataset(), &cache, opts);
  }();

  const std::vector<double> before = core::ComputeProxyScores(index, scorer);
  const double rho_before = PearsonCorrelation(before, truth);

  labeler::SimulatedLabeler oracle(&bench_->dataset());
  labeler::FallibleAdapter adapter(&oracle);
  labeler::CachingFallibleLabeler cache(&adapter);
  queries::AggregationOptions agg_opts;
  agg_opts.error_target = 0.03;
  agg_opts.seed = 80;
  queries::TryEstimateMean(before, &cache, scorer, agg_opts).value();

  const size_t added = index.CrackFrom(cache);
  EXPECT_GT(added, 0u);
  const std::vector<double> after = core::ComputeProxyScores(index, scorer);
  const double rho_after = PearsonCorrelation(after, truth);
  EXPECT_GE(rho_after, rho_before - 0.01);
}

TEST_F(TastiPipelineTest, NoGuaranteeQueriesAreAccurate) {
  // Table 2: direct proxy aggregation within a few percent; threshold
  // selection with high F1.
  core::CountScorer agg(data::ObjectClass::kCar);
  const double truth = Mean(core::ExactScores(bench_->dataset(), agg));
  const double estimate =
      queries::DirectAggregate(bench_->TastiScores(agg, true));
  EXPECT_LT(queries::PercentError(estimate, truth), 0.10);

  core::PresenceScorer sel(data::ObjectClass::kCar);
  const std::vector<double> sel_truth =
      core::ExactScores(bench_->dataset(), sel);
  auto oracle = bench_->MakeOracle();
  labeler::FallibleAdapter adapter(oracle.get());
  queries::ThresholdSelectOptions sel_opts;
  sel_opts.validation_budget = 300;
  sel_opts.seed = 81;
  queries::ThresholdSelectResult result = queries::TryThresholdSelect(
      bench_->TastiScores(sel, true), &adapter, sel, sel_opts).value();
  EXPECT_GT(queries::F1Score(result.selected, sel_truth), 0.8);
}

// ---------- Multi-modality end-to-end ----------

TEST(MultiModalityTest, TextPipelineWorks) {
  eval::ExperimentConfig config;
  config.text_speech_records = 4000;
  config.text_speech_train = 300;
  config.text_speech_reps = 300;
  config.embedding_dim = 32;
  config.epochs = 15;
  config.seed = 6;
  eval::Workbench bench(data::DatasetId::kWikiSql, config);

  core::PredicateCountScorer scorer;
  const std::vector<double> truth = core::ExactScores(bench.dataset(), scorer);
  const auto proxy = bench.TastiScores(scorer, true);
  EXPECT_GT(PearsonCorrelation(proxy, truth), 0.6);

  queries::AggregationOptions opts;
  opts.error_target = 0.03;
  opts.seed = 82;
  auto oracle = bench.MakeOracle();
  labeler::FallibleAdapter adapter(oracle.get());
  queries::AggregationResult result =
      queries::TryEstimateMean(proxy, &adapter, scorer, opts).value();
  EXPECT_NEAR(result.estimate, Mean(truth), 3 * opts.error_target);
}

TEST(MultiModalityTest, SpeechPipelineWorks) {
  eval::ExperimentConfig config;
  config.text_speech_records = 4000;
  config.text_speech_train = 300;
  config.text_speech_reps = 300;
  config.embedding_dim = 32;
  config.epochs = 15;
  config.seed = 7;
  eval::Workbench bench(data::DatasetId::kCommonVoice, config);

  core::MaleScorer scorer;
  const std::vector<double> truth = core::ExactScores(bench.dataset(), scorer);
  const auto proxy = bench.TastiScores(scorer, true);
  EXPECT_GT(PearsonCorrelation(proxy, truth), 0.5);

  queries::SupgOptions opts;
  opts.budget = 400;
  opts.seed = 83;
  auto oracle = bench.MakeOracle();
  labeler::FallibleAdapter adapter(oracle.get());
  queries::SupgResult result =
      queries::TrySupgRecallSelect(proxy, &adapter, scorer, opts).value();
  EXPECT_GE(queries::AchievedRecall(result.selected, truth), 0.85);
}

TEST(MultiModalityTest, TaipeiSharedIndexServesBothClasses) {
  // The paper uses one set of embeddings/distances for both taipei
  // classes; verify one index answers car and bus queries.
  eval::ExperimentConfig config;
  config.video_records = 6000;
  config.video_train = 500;
  config.video_reps = 600;
  config.embedding_dim = 32;
  config.epochs = 15;
  config.seed = 8;
  eval::Workbench bench(data::DatasetId::kTaipei, config);

  core::CountScorer cars(data::ObjectClass::kCar);
  core::CountScorer buses(data::ObjectClass::kBus);
  const auto car_truth = core::ExactScores(bench.dataset(), cars);
  const auto bus_truth = core::ExactScores(bench.dataset(), buses);
  EXPECT_GT(PearsonCorrelation(bench.TastiScores(cars, true), car_truth), 0.5);
  EXPECT_GT(PearsonCorrelation(bench.TastiScores(buses, true), bus_truth), 0.3);
}

}  // namespace
}  // namespace tasti
