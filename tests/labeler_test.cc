// Unit tests for labeler/: simulated and degraded labelers, the per-query
// label cache, invocation counting, and the Table 1 cost model.

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "labeler/cost_model.h"
#include "labeler/faults.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"

namespace tasti::labeler {
namespace {

data::Dataset SmallVideoDataset() {
  data::DatasetOptions opts;
  opts.num_records = 300;
  return data::MakeNightStreet(opts);
}

TEST(SimulatedLabelerTest, ReturnsGroundTruthAndCounts) {
  data::Dataset ds = SmallVideoDataset();
  SimulatedLabeler labeler(&ds);
  EXPECT_EQ(labeler.num_records(), 300u);
  EXPECT_EQ(labeler.invocations(), 0u);
  for (size_t i = 0; i < 10; ++i) {
    const data::LabelerOutput out = labeler.Label(i);
    EXPECT_EQ(data::CountBoxes(out), data::CountBoxes(ds.ground_truth[i]));
  }
  EXPECT_EQ(labeler.invocations(), 10u);
  labeler.ResetInvocations();
  EXPECT_EQ(labeler.invocations(), 0u);
}

TEST(SimulatedLabelerTest, RepeatedLabelsCountEachTime) {
  data::Dataset ds = SmallVideoDataset();
  SimulatedLabeler labeler(&ds);
  labeler.Label(5);
  labeler.Label(5);
  labeler.Label(5);
  EXPECT_EQ(labeler.invocations(), 3u);
}

TEST(DegradedLabelerTest, DropsSomeBoxes) {
  data::Dataset ds = SmallVideoDataset();
  DegradationOptions opts;
  opts.miss_probability = 0.5;
  opts.false_positive_rate = 0.0;
  DegradedLabeler degraded(&ds, opts);
  size_t truth_total = 0, detected_total = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    truth_total += data::CountBoxes(ds.ground_truth[i]);
    detected_total += data::CountBoxes(degraded.Label(i));
  }
  ASSERT_GT(truth_total, 0u);
  // Roughly half the boxes survive.
  EXPECT_LT(detected_total, truth_total * 3 / 4);
  EXPECT_GT(detected_total, truth_total / 4);
}

TEST(DegradedLabelerTest, DeterministicPerRecord) {
  data::Dataset ds = SmallVideoDataset();
  DegradedLabeler degraded(&ds, DegradationOptions{});
  const data::LabelerOutput a = degraded.Label(7);
  const data::LabelerOutput b = degraded.Label(7);
  EXPECT_EQ(data::CountBoxes(a), data::CountBoxes(b));
}

TEST(DegradedLabelerTest, ProducesFalsePositivesOnEmptyFrames) {
  data::Dataset ds = SmallVideoDataset();
  DegradationOptions opts;
  opts.miss_probability = 1.0;  // drop every true box
  opts.false_positive_rate = 0.5;
  DegradedLabeler degraded(&ds, opts);
  size_t spurious = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    spurious += data::CountBoxes(degraded.Label(i));
  }
  EXPECT_GT(spurious, 0u);
}

TEST(DegradedLabelerTest, NonVideoPassesThrough) {
  data::DatasetOptions opts;
  opts.num_records = 50;
  data::Dataset ds = data::MakeWikiSql(opts);
  DegradedLabeler degraded(&ds, DegradationOptions{});
  for (size_t i = 0; i < 10; ++i) {
    const auto out = degraded.Label(i);
    const auto* text = std::get_if<data::TextLabel>(&out);
    const auto* truth = std::get_if<data::TextLabel>(&ds.ground_truth[i]);
    ASSERT_NE(text, nullptr);
    EXPECT_EQ(text->op, truth->op);
    EXPECT_EQ(text->num_predicates, truth->num_predicates);
  }
}

// ---------- Per-query label cache ----------

TEST(CachingFallibleLabelerTest, DeduplicatesInvocations) {
  data::Dataset ds = SmallVideoDataset();
  SimulatedLabeler simulated(&ds);
  FallibleAdapter oracle(&simulated);
  CachingFallibleLabeler cache(&oracle);
  for (size_t record : {3, 3, 4, 3}) ASSERT_TRUE(cache.TryLabel(record).ok());
  EXPECT_EQ(simulated.invocations(), 2u);
  EXPECT_EQ(cache.invocations(), 2u);
  ASSERT_EQ(cache.labeled_indices().size(), 2u);
  EXPECT_EQ(cache.labeled_indices()[0], 3u);
  EXPECT_EQ(cache.labeled_indices()[1], 4u);
}

TEST(CachingFallibleLabelerTest, CachedLabelLookup) {
  data::Dataset ds = SmallVideoDataset();
  SimulatedLabeler simulated(&ds);
  FallibleAdapter oracle(&simulated);
  CachingFallibleLabeler cache(&oracle);
  EXPECT_FALSE(cache.CachedLabel(9).has_value());
  ASSERT_TRUE(cache.TryLabel(9).ok());
  ASSERT_TRUE(cache.CachedLabel(9).has_value());
  EXPECT_EQ(data::CountBoxes(*cache.CachedLabel(9)),
            data::CountBoxes(ds.ground_truth[9]));
}

TEST(CachingFallibleLabelerTest, FailedCallIsNotCachedAndRetriesTheOracle) {
  data::Dataset ds = SmallVideoDataset();
  SimulatedLabeler simulated(&ds);
  FaultSchedule schedule;
  schedule.crash_windows.push_back({0, 1});  // only the first attempt fails
  FaultInjectingLabeler oracle(&simulated, schedule);
  CachingFallibleLabeler cache(&oracle);

  EXPECT_FALSE(cache.TryLabel(5).ok());
  EXPECT_FALSE(cache.CachedLabel(5).has_value());
  EXPECT_TRUE(cache.labeled_indices().empty());
  EXPECT_EQ(oracle.invocations(), 1u);

  // The failure left no entry, so the next call reaches the oracle again.
  Result<data::LabelerOutput> retry = cache.TryLabel(5);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(oracle.invocations(), 2u);
  EXPECT_EQ(data::CountBoxes(*retry), data::CountBoxes(ds.ground_truth[5]));
  ASSERT_EQ(cache.labeled_indices().size(), 1u);
  EXPECT_EQ(cache.labeled_indices()[0], 5u);

  // Now it is cached: a third call is free.
  ASSERT_TRUE(cache.TryLabel(5).ok());
  EXPECT_EQ(oracle.invocations(), 2u);
}

// ---------- Wrapper invocation contract ----------
//
// Every oracle wrapper delegates invocations() to its inner oracle so
// that, however deep the wrapping (caching inside caching...), all
// layers agree with the base oracle. These are
// regression tests for the per-query attribution in obs::QueryLog, which
// relies on deltas of the base counter.

TEST(WrapperContractTest, NestedCachingChainsAgreeWithOracle) {
  data::Dataset ds = SmallVideoDataset();
  SimulatedLabeler simulated(&ds);
  FallibleAdapter oracle(&simulated);
  CachingFallibleLabeler inner(&oracle);
  CachingFallibleLabeler outer(&inner);
  ASSERT_TRUE(outer.TryLabel(3).ok());
  ASSERT_TRUE(outer.TryLabel(3).ok());  // outer cache hit: no new invocation
  ASSERT_TRUE(inner.TryLabel(3).ok());  // inner cache hit
  ASSERT_TRUE(outer.TryLabel(4).ok());
  EXPECT_EQ(simulated.invocations(), 2u);
  EXPECT_EQ(inner.invocations(), 2u);
  EXPECT_EQ(outer.invocations(), 2u);
}

TEST(WrapperContractTest, ResetPropagatesToTheBaseOracle) {
  data::Dataset ds = SmallVideoDataset();
  SimulatedLabeler simulated(&ds);
  FallibleAdapter oracle(&simulated);
  CachingFallibleLabeler cache(&oracle);
  ASSERT_TRUE(cache.TryLabel(0).ok());
  ASSERT_TRUE(cache.TryLabel(1).ok());
  EXPECT_EQ(cache.invocations(), 2u);
  cache.ResetInvocations();
  EXPECT_EQ(simulated.invocations(), 0u);
  EXPECT_EQ(cache.invocations(), 0u);
}

// ---------- Cost model ----------

TEST(CostModelTest, ExhaustiveCostsScaleWithRecords) {
  CostModel model;
  // The paper's Table 1 ratios: Mask R-CNN exhaustive is 50x SSD.
  const double mask = model.LabelCost(LabelerKind::kMaskRCnn, 973000);
  const double ssd = model.LabelCost(LabelerKind::kSsd, 973000);
  EXPECT_NEAR(mask / ssd, 50.0, 1.0);
  // Human labeling is in dollars.
  EXPECT_NEAR(model.LabelCost(LabelerKind::kHuman, 1000), 70.0, 1e-9);
}

TEST(CostModelTest, KindNamesAndUnits) {
  EXPECT_EQ(LabelerKindName(LabelerKind::kHuman), "Human labeler");
  EXPECT_EQ(LabelerKindName(LabelerKind::kSsd), "SSD");
  EXPECT_TRUE(CostModel::IsDollars(LabelerKind::kHuman));
  EXPECT_FALSE(CostModel::IsDollars(LabelerKind::kMaskRCnn));
}

}  // namespace
}  // namespace tasti::labeler
