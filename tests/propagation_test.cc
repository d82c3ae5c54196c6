// Equivalence tests for the incremental propagation engine: a
// PropagationState advanced through UpdateProxyState across index deltas
// (single-record cracks, batched cracks, degraded-rep repairs, streaming
// appends, chains of epochs) must be bit-identical to a full recompute on
// the resulting index. These are the correctness backbone of the serving
// score cache — any drift here would silently poison every cached query.

#include <gtest/gtest.h>

#include <vector>

#include "core/index.h"
#include "core/propagation.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "data/dataset.h"
#include "labeler/faults.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"

namespace tasti::core {
namespace {

data::Dataset SmallDataset(size_t n = 2000, uint64_t seed = 13) {
  data::DatasetOptions opts;
  opts.num_records = n;
  opts.seed = seed;
  return data::MakeNightStreet(opts);
}

IndexOptions FastIndexOptions() {
  IndexOptions opts;
  opts.num_training_records = 200;
  opts.num_representatives = 200;
  opts.embedding_dim = 16;
  opts.hidden_dim = 32;
  opts.epochs = 10;
  opts.k = 5;
  opts.seed = 3;
  return opts;
}

TastiIndex BuildSmallIndex(const data::Dataset& ds,
                           IndexOptions opts = FastIndexOptions()) {
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  labeler::CachingFallibleLabeler cache(&adapter);
  return TastiIndex::Build(ds, &cache, opts);
}

/// Bitwise score comparison: the incremental contract is exact equality,
/// not tolerance.
void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "score diverges at record " << i;
  }
}

/// Advances `state` with the index's pending delta and checks the result
/// against a from-scratch recompute on the same view.
void AdvanceAndCheck(TastiIndex* index, const Scorer& scorer,
                     PropagationMode mode, PropagationState* state) {
  IndexDelta delta = index->TakeDelta();
  ASSERT_FALSE(delta.full) << "expected a row-wise delta";
  UpdateProxyState(index->View(), scorer, delta.dirty_rows, delta.dirty_reps,
                   state);
  ExpectBitIdentical(state->scores,
                     ComputeProxyScores(*index, scorer, mode));
}

/// First `count` record ids that are not yet representatives.
std::vector<size_t> NonRepRecords(const TastiIndex& index, size_t count,
                                  size_t start = 0) {
  std::vector<size_t> out;
  for (size_t r = start; r < index.num_records() && out.size() < count; ++r) {
    if (!index.IsRepresentative(r)) out.push_back(r);
  }
  return out;
}

TEST(PropagationStateTest, FullStateMatchesComputeProxyScores) {
  for (uint64_t seed : {13u, 29u, 47u}) {
    data::Dataset ds = SmallDataset(2000, seed);
    TastiIndex index = BuildSmallIndex(ds);
    CountScorer cars(data::ObjectClass::kCar);
    for (PropagationMode mode :
         {PropagationMode::kNumeric, PropagationMode::kLimit}) {
      PropagationState state;
      ComputeProxyState(index.View(), cars, mode, {}, &state);
      ExpectBitIdentical(state.scores, ComputeProxyScores(index, cars, mode));
    }
  }
}

TEST(PropagationStateTest, FirstTakeDeltaIsAlwaysFull) {
  data::Dataset ds = SmallDataset(1200);
  TastiIndex index = BuildSmallIndex(ds);
  IndexDelta delta = index.TakeDelta();
  EXPECT_TRUE(delta.full);
  // The second window starts at the current state and is row-wise.
  delta = index.TakeDelta();
  EXPECT_FALSE(delta.full);
  EXPECT_EQ(delta.base_num_records, index.num_records());
  EXPECT_EQ(delta.base_num_representatives, index.num_representatives());
  EXPECT_TRUE(delta.dirty_rows.empty());
  EXPECT_TRUE(delta.dirty_reps.empty());
}

TEST(PropagationStateTest, IncrementalMatchesFullAcrossSingleAddChain) {
  for (uint64_t seed : {13u, 29u, 47u}) {
    data::Dataset ds = SmallDataset(2000, seed);
    TastiIndex index = BuildSmallIndex(ds);
    index.TakeDelta();  // reset the full initial window

    CountScorer cars(data::ObjectClass::kCar);
    PropagationState state;
    ComputeProxyState(index.View(), cars, PropagationMode::kNumeric, {},
                      &state);

    // Chain of 4 epochs, each adding a handful of single representatives;
    // the state advances delta-by-delta, never recomputing from scratch.
    std::vector<size_t> adds = NonRepRecords(index, 12);
    ASSERT_EQ(adds.size(), 12u);
    for (size_t epoch = 0; epoch < 4; ++epoch) {
      for (size_t j = 0; j < 3; ++j) {
        const size_t record = adds[epoch * 3 + j];
        index.CrackFromLabels({record}, {ds.ground_truth[record]});
      }
      AdvanceAndCheck(&index, cars, PropagationMode::kNumeric, &state);
    }
  }
}

TEST(PropagationStateTest, IncrementalMatchesFullForAllModes) {
  data::Dataset ds = SmallDataset(2000);
  CountScorer cars(data::ObjectClass::kCar);
  for (PropagationMode mode :
       {PropagationMode::kNumeric, PropagationMode::kLimit}) {
    TastiIndex index = BuildSmallIndex(ds);
    index.TakeDelta();
    PropagationState state;
    ComputeProxyState(index.View(), cars, mode, {}, &state);
    for (size_t record : NonRepRecords(index, 5)) {
      index.CrackFromLabels({record}, {ds.ground_truth[record]});
    }
    AdvanceAndCheck(&index, cars, mode, &state);
  }
}

TEST(PropagationStateTest, IncrementalMatchesFullAfterBatchedCrack) {
  data::Dataset ds = SmallDataset(2500);
  TastiIndex index = BuildSmallIndex(ds);
  index.TakeDelta();

  PresenceScorer pedestrians(data::ObjectClass::kPerson);
  PropagationState state;
  ComputeProxyState(index.View(), pedestrians, PropagationMode::kNumeric, {},
                    &state);

  std::vector<size_t> records = NonRepRecords(index, 40);
  std::vector<data::LabelerOutput> labels;
  for (size_t r : records) labels.push_back(ds.ground_truth[r]);
  ASSERT_EQ(index.CrackFromLabels(records, labels), records.size());

  AdvanceAndCheck(&index, pedestrians, PropagationMode::kNumeric, &state);
}

TEST(PropagationStateTest, LargeCrackKeepsRowDelta) {
  data::Dataset ds = SmallDataset(2000);
  IndexOptions opts = FastIndexOptions();
  opts.num_representatives = 40;  // a crack larger than the whole base
  opts.num_training_records = 40;
  TastiIndex index = BuildSmallIndex(ds, opts);
  index.TakeDelta();

  CountScorer cars(data::ObjectClass::kCar);
  PropagationState state;
  ComputeProxyState(index.View(), cars, PropagationMode::kNumeric, {}, &state);

  std::vector<size_t> records = NonRepRecords(index, 60);
  std::vector<data::LabelerOutput> labels;
  for (size_t r : records) labels.push_back(ds.ground_truth[r]);
  ASSERT_EQ(index.CrackFromLabels(records, labels), records.size());

  // Even 60 new reps onto 40 take the incremental update, so the epoch
  // still carries its changed rows (AdvanceAndCheck asserts !delta.full)
  // and advancing by them is bit-identical to full propagation.
  AdvanceAndCheck(&index, cars, PropagationMode::kNumeric, &state);
}

TEST(PropagationStateTest, IncrementalMatchesFullAfterDegradedRepair) {
  data::Dataset ds = SmallDataset(2000);
  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.permanent_rate = 0.08;
  sched.seed = 11;
  labeler::FaultInjectingLabeler inj(&sim, sched);
  labeler::ResilientLabeler oracle(&inj, {});
  TastiIndex index = TastiIndex::Build(ds, &oracle, FastIndexOptions());
  ASSERT_GT(index.num_failed_representatives(), 0u) << "build never degraded";
  index.TakeDelta();

  CountScorer cars(data::ObjectClass::kCar);
  PropagationState state;
  ComputeProxyState(index.View(), cars, PropagationMode::kNumeric, {}, &state);

  // Heal the oracle and repair every failed representative: min-k lists
  // are untouched, but each repaired rep flips from excluded to included.
  inj.set_schedule(labeler::FaultSchedule{});
  std::vector<size_t> positions = index.failed_representative_positions();
  std::vector<size_t> records = index.failed_rep_record_ids();
  for (size_t i = 0; i < positions.size(); ++i) {
    Result<data::LabelerOutput> label = oracle.TryLabel(records[i]);
    ASSERT_TRUE(label.ok());
    index.RepairRepresentative(positions[i], *std::move(label));
  }
  EXPECT_EQ(index.num_failed_representatives(), 0u);

  IndexDelta delta = index.TakeDelta();
  ASSERT_FALSE(delta.full);
  EXPECT_EQ(delta.dirty_reps.size(), positions.size());
  EXPECT_FALSE(delta.dirty_rows.empty());
  UpdateProxyState(index.View(), cars, delta.dirty_rows, delta.dirty_reps,
                   &state);
  ExpectBitIdentical(state.scores,
                     ComputeProxyScores(index, cars, PropagationMode::kNumeric));
}

TEST(PropagationStateTest, IncrementalMatchesFullAfterAppendRecords) {
  data::Dataset ds = SmallDataset(1600);
  TastiIndex index = BuildSmallIndex(ds);
  index.TakeDelta();

  CountScorer cars(data::ObjectClass::kCar);
  PropagationState state;
  ComputeProxyState(index.View(), cars, PropagationMode::kNumeric, {}, &state);

  data::Dataset more = SmallDataset(300, 99);
  index.AppendRecords(more.features);
  // Appended rows are new; existing min-k lists are untouched, so the
  // delta stays row-wise with no dirty rows.
  IndexDelta delta = index.TakeDelta();
  ASSERT_FALSE(delta.full);
  EXPECT_TRUE(delta.dirty_rows.empty());
  UpdateProxyState(index.View(), cars, delta.dirty_rows, delta.dirty_reps,
                   &state);
  ExpectBitIdentical(state.scores,
                     ComputeProxyScores(index, cars, PropagationMode::kNumeric));
}

TEST(PropagationStateTest, MixedChainCrackAppendRepair) {
  data::Dataset ds = SmallDataset(1800);
  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.permanent_rate = 0.05;
  sched.seed = 7;
  labeler::FaultInjectingLabeler inj(&sim, sched);
  labeler::ResilientLabeler oracle(&inj, {});
  TastiIndex index = TastiIndex::Build(ds, &oracle, FastIndexOptions());
  ASSERT_GT(index.num_failed_representatives(), 0u);
  index.TakeDelta();

  MeanXScorer mean_x(data::ObjectClass::kCar);
  PropagationState state;
  ComputeProxyState(index.View(), mean_x, PropagationMode::kNumeric, {},
                    &state);

  // Epoch 1: a small crack batch.
  std::vector<size_t> records = NonRepRecords(index, 8);
  std::vector<data::LabelerOutput> labels;
  for (size_t r : records) labels.push_back(ds.ground_truth[r]);
  index.CrackFromLabels(records, labels);
  AdvanceAndCheck(&index, mean_x, PropagationMode::kNumeric, &state);

  // Epoch 2: streaming append plus a single add among the new records.
  data::Dataset more = SmallDataset(200, 55);
  const size_t first_new = index.AppendRecords(more.features);
  index.CrackFromLabels({first_new}, {more.ground_truth[0]});
  AdvanceAndCheck(&index, mean_x, PropagationMode::kNumeric, &state);

  // Epoch 3: repair the degraded representatives.
  inj.set_schedule(labeler::FaultSchedule{});
  std::vector<size_t> positions = index.failed_representative_positions();
  std::vector<size_t> failed_records = index.failed_rep_record_ids();
  for (size_t i = 0; i < positions.size(); ++i) {
    Result<data::LabelerOutput> label = oracle.TryLabel(failed_records[i]);
    ASSERT_TRUE(label.ok());
    index.RepairRepresentative(positions[i], *std::move(label));
  }
  AdvanceAndCheck(&index, mean_x, PropagationMode::kNumeric, &state);
}

TEST(PropagationStateTest, UpdateRepresentativeScoresCountsWork) {
  data::Dataset ds = SmallDataset(1500);
  TastiIndex index = BuildSmallIndex(ds);
  index.TakeDelta();
  CountScorer cars(data::ObjectClass::kCar);
  PropagationState state;
  ComputeProxyState(index.View(), cars, PropagationMode::kNumeric, {}, &state);

  for (size_t record : NonRepRecords(index, 3)) {
    index.CrackFromLabels({record}, {ds.ground_truth[record]});
  }
  IndexDelta delta = index.TakeDelta();
  ASSERT_FALSE(delta.full);
  // Only the 3 appended representatives need scoring; dirty rows are the
  // records whose min-k lists admitted one of them.
  const size_t scored = UpdateRepresentativeScores(
      index.View(), cars, delta.dirty_reps, &state);
  EXPECT_EQ(scored, 3u);
  const size_t recomputed =
      PropagateIncremental(index.View(), delta.dirty_rows, &state);
  EXPECT_EQ(recomputed, delta.dirty_rows.size());
  EXPECT_LT(recomputed, index.num_records() / 2)
      << "3 single adds should dirty far fewer than half the rows";
  ExpectBitIdentical(state.scores,
                     ComputeProxyScores(index, cars, PropagationMode::kNumeric));
}

}  // namespace
}  // namespace tasti::core
