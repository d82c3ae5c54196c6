// Tests for api/: the TastiSession facade (a one-worker TastiServer) —
// lazy construction, proxy and label caching, auto-cracking, invocation
// accounting, spec validation, and all query entry points end to end.

#include <gtest/gtest.h>

#include <algorithm>

#include "api/session.h"
#include "core/proxy.h"
#include "data/dataset.h"
#include "labeler/labeler.h"
#include "serve/query.h"
#include "util/stats.h"
#include "util/status.h"

namespace tasti::api {
namespace {

data::Dataset TestDataset(size_t n = 6000, uint64_t seed = 61) {
  data::DatasetOptions opts;
  opts.num_records = n;
  opts.seed = seed;
  return data::MakeNightStreet(opts);
}

SessionOptions FastSessionOptions() {
  SessionOptions opts;
  opts.index.num_training_records = 400;
  opts.index.num_representatives = 500;
  opts.index.embedding_dim = 32;
  opts.index.hidden_dim = 64;
  opts.index.epochs = 15;
  opts.seed = 62;
  return opts;
}

TEST(SessionTest, LazyIndexConstruction) {
  data::Dataset ds = TestDataset(2000);
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  SessionOptions opts = FastSessionOptions();
  opts.index.num_training_records = 150;
  opts.index.num_representatives = 150;
  TastiSession session(&ds, &oracle, opts);
  EXPECT_FALSE(session.index_built());
  EXPECT_EQ(session.total_labeler_invocations(), 0u);

  core::CountScorer cars(data::ObjectClass::kCar);
  session.Aggregate(cars, 0.15);
  EXPECT_TRUE(session.index_built());
  EXPECT_GT(session.index_invocations(), 0u);
  EXPECT_GT(session.total_labeler_invocations(), session.index_invocations());
}

TEST(SessionTest, InvocationAccountingMatchesOracle) {
  data::Dataset ds = TestDataset(2000);
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  SessionOptions opts = FastSessionOptions();
  opts.index.num_training_records = 150;
  opts.index.num_representatives = 150;
  TastiSession session(&ds, &oracle, opts);
  core::CountScorer cars(data::ObjectClass::kCar);
  session.Aggregate(cars, 0.15);
  session.Limit(core::AtLeastCountScorer(data::ObjectClass::kCar, 2), 5);
  EXPECT_EQ(session.total_labeler_invocations(), oracle.invocations());
  EXPECT_EQ(session.queries_executed(), 2u);
}

TEST(SessionTest, AggregateIsAccurate) {
  data::Dataset ds = TestDataset();
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  TastiSession session(&ds, &oracle, FastSessionOptions());
  core::CountScorer cars(data::ObjectClass::kCar);
  const double truth = Mean(core::ExactScores(ds, cars));
  const auto result = session.Aggregate(cars, 0.1);
  EXPECT_NEAR(result.estimate, truth, 0.3);
}

TEST(SessionTest, SelectWithRecallMeetsTarget) {
  data::Dataset ds = TestDataset();
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  TastiSession session(&ds, &oracle, FastSessionOptions());
  core::PresenceScorer has_car(data::ObjectClass::kCar);
  const auto truth = core::ExactScores(ds, has_car);
  const auto result = session.SelectWithRecall(has_car, 0.9, 400);
  EXPECT_GE(queries::AchievedRecall(result.selected, truth), 0.88);
}

TEST(SessionTest, SelectWithPrecisionMeetsTarget) {
  data::Dataset ds = TestDataset();
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  TastiSession session(&ds, &oracle, FastSessionOptions());
  core::PresenceScorer has_car(data::ObjectClass::kCar);
  const auto truth = core::ExactScores(ds, has_car);
  const auto result = session.SelectWithPrecision(has_car, 0.9, 400);
  EXPECT_GE(queries::AchievedPrecision(result.selected, truth), 0.88);
}

TEST(SessionTest, LimitFindsMatches) {
  data::Dataset ds = TestDataset();
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  TastiSession session(&ds, &oracle, FastSessionOptions());
  core::AtLeastCountScorer busy(data::ObjectClass::kCar, 2);
  const auto result = session.Limit(busy, 5);
  EXPECT_TRUE(result.satisfied);
  for (size_t record : result.found) {
    EXPECT_GE(busy.Score(ds.ground_truth[record]), 0.5);
  }
}

TEST(SessionTest, AggregateWhereEstimatesConditionalMean) {
  data::Dataset ds = TestDataset();
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  TastiSession session(&ds, &oracle, FastSessionOptions());
  core::PresenceScorer has_car(data::ObjectClass::kCar);
  core::MeanXScorer mean_x(data::ObjectClass::kCar);
  double truth_sum = 0.0;
  size_t truth_count = 0;
  for (const auto& label : ds.ground_truth) {
    if (has_car.Score(label) >= 0.5) {
      truth_sum += mean_x.Score(label);
      ++truth_count;
    }
  }
  const double truth = truth_sum / truth_count;
  const auto result = session.AggregateWhere(has_car, mean_x, 0.1);
  EXPECT_NEAR(result.estimate, truth, 0.15);
}

TEST(SessionTest, SelectThresholdReturnsRecords) {
  data::Dataset ds = TestDataset();
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  TastiSession session(&ds, &oracle, FastSessionOptions());
  core::PresenceScorer has_car(data::ObjectClass::kCar);
  const auto truth = core::ExactScores(ds, has_car);
  const auto result = session.Select(has_car, 300);
  EXPECT_GT(queries::F1Score(result.selected, truth), 0.7);
}

TEST(SessionTest, AutoCrackGrowsIndexAcrossQueries) {
  data::Dataset ds = TestDataset();
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  TastiSession session(&ds, &oracle, FastSessionOptions());
  core::CountScorer cars(data::ObjectClass::kCar);
  session.Aggregate(cars, 0.12);
  const size_t after_first = session.index().num_representatives();
  EXPECT_GT(after_first, FastSessionOptions().index.num_representatives);
  session.Aggregate(cars, 0.12);
  EXPECT_GE(session.index().num_representatives(), after_first);
}

TEST(SessionTest, AutoCrackMakesLaterQueriesCheaper) {
  data::Dataset ds = TestDataset();
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  TastiSession session(&ds, &oracle, FastSessionOptions());
  core::CountScorer cars(data::ObjectClass::kCar);
  const auto first = session.Aggregate(cars, 0.1);
  const auto second = session.Aggregate(cars, 0.1);
  // The cracked index yields better proxies; the second run must not cost
  // substantially more than the first.
  EXPECT_LE(second.labeler_invocations, first.labeler_invocations * 3 / 2);
}

TEST(SessionTest, AutoCrackOffKeepsIndexFixed) {
  data::Dataset ds = TestDataset(3000);
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  SessionOptions opts = FastSessionOptions();
  opts.auto_crack = false;
  opts.index.num_representatives = 200;
  opts.index.num_training_records = 200;
  TastiSession session(&ds, &oracle, opts);
  core::CountScorer cars(data::ObjectClass::kCar);
  session.Aggregate(cars, 0.15);
  EXPECT_EQ(session.index().num_representatives(), 200u);
}

TEST(SessionTest, ProxyCacheReusedWithoutCracking) {
  data::Dataset ds = TestDataset(3000);
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  SessionOptions opts = FastSessionOptions();
  opts.auto_crack = false;
  opts.index.num_representatives = 200;
  opts.index.num_training_records = 200;
  TastiSession session(&ds, &oracle, opts);
  core::CountScorer cars(data::ObjectClass::kCar);
  core::AtLeastCountScorer busy(data::ObjectClass::kCar, 2);
  session.index();  // force construction
  const size_t after_build = session.total_labeler_invocations();
  // Proxy scores come from the index alone: no labeler calls.
  EXPECT_NEAR(Mean(core::ComputeProxyScores(session.index(), cars)),
              Mean(core::ExactScores(ds, cars)), 0.3);
  EXPECT_EQ(session.total_labeler_invocations(), after_build);

  serve::QuerySpec spec;
  spec.kind = serve::QueryKind::kLimit;
  spec.scorer = &busy;
  spec.want = 5;
  const serve::QueryResponse first = session.Execute(spec);
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(first.proxy_source, serve::ProxySource::kFull);
  const size_t after_first = session.total_labeler_invocations();
  // Nothing cracked, so the repeat reads the cached proxy scores, ranks
  // the same records and finds every label in the server-wide cache.
  const serve::QueryResponse second = session.Execute(spec);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.proxy_source, serve::ProxySource::kHit);
  EXPECT_EQ(second.attributed_invocations, 0u);
  EXPECT_EQ(session.total_labeler_invocations(), after_first);
  EXPECT_EQ(second.limit.found, first.limit.found);
}

// A spec without a scorer, or an aggregate-where without a statistic, is
// rejected with InvalidArgument instead of being dereferenced.
TEST(SessionTest, InvalidSpecReturnsInvalidArgument) {
  data::Dataset ds = TestDataset(1500);
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  SessionOptions opts = FastSessionOptions();
  opts.index.num_training_records = 100;
  opts.index.num_representatives = 100;
  TastiSession session(&ds, &oracle, opts);
  core::PresenceScorer has_car(data::ObjectClass::kCar);

  serve::QuerySpec no_scorer;
  no_scorer.kind = serve::QueryKind::kAggregate;
  serve::QueryResponse response = session.Execute(no_scorer);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.last_query_status().code(), StatusCode::kInvalidArgument);

  serve::QuerySpec no_statistic;
  no_statistic.kind = serve::QueryKind::kAggregateWhere;
  no_statistic.scorer = &has_car;
  response = session.Execute(no_statistic);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.last_query_status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.queries_executed(), 0u);

  // Rejected specs leave the session usable.
  session.SelectWithRecall(has_car, 0.9, 100);
  EXPECT_TRUE(session.last_query_status().ok());
  EXPECT_EQ(session.queries_executed(), 1u);
}

}  // namespace
}  // namespace tasti::api
