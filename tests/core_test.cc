// Unit tests for core/: index construction (Algorithm 1), scorers, score
// propagation, proxy generation, cracking, and serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/index.h"
#include "core/drift.h"
#include "core/index_stats.h"
#include "core/propagation.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "core/serialize.h"
#include "data/dataset.h"
#include "durable/checkpoint.h"
#include "durable/file.h"
#include "durable/recovery.h"
#include "durable/wal.h"
#include "labeler/faults.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"
#include "util/stats.h"

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

// ---------- Index construction ----------

TEST(IndexBuildTest, ShapesAndCounts) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  EXPECT_EQ(index.num_records(), ds.size());
  EXPECT_EQ(index.num_representatives(), 200u);
  EXPECT_EQ(index.rep_labels().size(), 200u);
  EXPECT_EQ(index.embeddings().rows(), ds.size());
  EXPECT_EQ(index.embeddings().cols(), 16u);
  EXPECT_EQ(index.rep_embeddings().rows(), 200u);
  EXPECT_EQ(index.k(), 5u);
  EXPECT_EQ(index.topk().num_records, ds.size());
}

TEST(IndexBuildTest, RepresentativesAreDistinctRecords) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  std::set<size_t> unique(index.rep_record_ids().begin(),
                          index.rep_record_ids().end());
  EXPECT_EQ(unique.size(), index.num_representatives());
  for (size_t record : index.rep_record_ids()) {
    EXPECT_LT(record, ds.size());
    EXPECT_TRUE(index.IsRepresentative(record));
  }
}

TEST(IndexBuildTest, RepLabelsMatchGroundTruth) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  for (size_t i = 0; i < index.num_representatives(); ++i) {
    const size_t record = index.rep_record_ids()[i];
    EXPECT_EQ(data::CountBoxes(index.rep_labels()[i]),
              data::CountBoxes(ds.ground_truth[record]));
  }
}

TEST(IndexBuildTest, BudgetAccounting) {
  data::Dataset ds = SmallDataset();
  data::Dataset copy = ds;  // keep a pristine oracle source
  labeler::SimulatedLabeler oracle(&copy);
  labeler::FallibleAdapter adapter(&oracle);
  labeler::CachingFallibleLabeler cache(&adapter);
  IndexOptions opts = FastIndexOptions();
  TastiIndex index = TastiIndex::Build(ds, &cache, opts);
  // With a caching labeler, total distinct annotations are at most
  // N1 + N2 and at least N2.
  EXPECT_LE(oracle.invocations(),
            opts.num_training_records + opts.num_representatives);
  EXPECT_GE(oracle.invocations(), opts.num_representatives);
  EXPECT_EQ(index.build_stats().TotalInvocations(), oracle.invocations());
}

TEST(IndexBuildTest, PretrainedVariantSkipsTraining) {
  data::Dataset ds = SmallDataset();
  IndexOptions opts = FastIndexOptions();
  opts.use_triplet_training = false;
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  TastiIndex index = TastiIndex::Build(ds, &oracle, opts);
  EXPECT_EQ(index.build_stats().training_invocations, 0u);
  EXPECT_EQ(index.build_stats().train_seconds, 0.0);
  EXPECT_EQ(oracle.invocations(), opts.num_representatives);
}

TEST(IndexBuildTest, RandomClusteringAblation) {
  data::Dataset ds = SmallDataset();
  IndexOptions opts = FastIndexOptions();
  opts.rep_selection = RepSelectionPolicy::kRandom;
  TastiIndex index = BuildSmallIndex(ds, opts);
  EXPECT_EQ(index.num_representatives(), opts.num_representatives);
}

TEST(IndexBuildTest, TopKSelfDistanceZeroForReps) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  for (size_t i = 0; i < index.num_representatives(); ++i) {
    const size_t record = index.rep_record_ids()[i];
    EXPECT_NEAR(index.topk().Dist(record, 0), 0.0f, 1e-5f);
    EXPECT_EQ(index.topk().RepId(record, 0), static_cast<uint32_t>(i));
  }
}

TEST(IndexBuildTest, DeterministicInSeed) {
  data::Dataset ds = SmallDataset();
  TastiIndex a = BuildSmallIndex(ds);
  TastiIndex b = BuildSmallIndex(ds);
  ASSERT_EQ(a.rep_record_ids().size(), b.rep_record_ids().size());
  for (size_t i = 0; i < a.rep_record_ids().size(); ++i) {
    EXPECT_EQ(a.rep_record_ids()[i], b.rep_record_ids()[i]);
  }
}

// ---------- Scorers ----------

TEST(ScorerTest, BuiltinVideoScorers) {
  data::VideoLabel video;
  data::Box car;
  car.cls = data::ObjectClass::kCar;
  car.x = 0.2f;
  video.boxes.push_back(car);
  car.x = 0.6f;
  video.boxes.push_back(car);
  data::LabelerOutput label = video;

  EXPECT_EQ(CountScorer(data::ObjectClass::kCar).Score(label), 2.0);
  EXPECT_EQ(CountScorer(data::ObjectClass::kBus).Score(label), 0.0);
  EXPECT_EQ(PresenceScorer(data::ObjectClass::kCar).Score(label), 1.0);
  EXPECT_EQ(PresenceScorer(data::ObjectClass::kBus).Score(label), 0.0);
  EXPECT_EQ(LeftPresenceScorer(data::ObjectClass::kCar).Score(label), 1.0);
  EXPECT_NEAR(MeanXScorer(data::ObjectClass::kCar).Score(label), 0.4, 1e-6);
  EXPECT_EQ(AtLeastCountScorer(data::ObjectClass::kCar, 2).Score(label), 1.0);
  EXPECT_EQ(AtLeastCountScorer(data::ObjectClass::kCar, 3).Score(label), 0.0);
}

TEST(ScorerTest, TextAndSpeechScorers) {
  data::LabelerOutput text = data::TextLabel{data::SqlOp::kSelect, 3};
  EXPECT_EQ(PredicateCountScorer().Score(text), 3.0);
  EXPECT_EQ(SqlOpScorer(data::SqlOp::kSelect).Score(text), 1.0);
  EXPECT_EQ(SqlOpScorer(data::SqlOp::kMax).Score(text), 0.0);

  data::LabelerOutput male = data::SpeechLabel{data::Gender::kMale, 30};
  data::LabelerOutput female = data::SpeechLabel{data::Gender::kFemale, 30};
  EXPECT_EQ(MaleScorer().Score(male), 1.0);
  EXPECT_EQ(MaleScorer().Score(female), 0.0);
}

TEST(ScorerTest, LambdaScorerWrapsFunction) {
  LambdaScorer scorer(
      [](const data::LabelerOutput& out) {
        return data::CountBoxes(out) * 2.0;
      },
      false, "double_count");
  data::VideoLabel video;
  video.boxes.resize(3);
  EXPECT_EQ(scorer.Score(data::LabelerOutput{video}), 6.0);
  EXPECT_EQ(scorer.Name(), "double_count");
  EXPECT_FALSE(scorer.categorical());
}

TEST(ScorerTest, CategoricalFlags) {
  EXPECT_FALSE(CountScorer(data::ObjectClass::kCar).categorical());
  EXPECT_TRUE(PresenceScorer(data::ObjectClass::kCar).categorical());
  EXPECT_TRUE(MaleScorer().categorical());
  EXPECT_FALSE(MeanXScorer(data::ObjectClass::kCar).categorical());
}

// ---------- Propagation ----------

// Serial reference written straight from the propagation formulas, over
// the stored neighbours in stored order: the IDW mean sum(w*s) / sum(w)
// with w = 1 / (d + eps)^p over the first k, and the best-of-k limit rank
// s + 0.999 / (1 + d) over all of them (best score, ties to the nearer).
std::vector<double> ReferenceProxy(const TastiIndex& index,
                                   const std::vector<double>& rep_scores,
                                   PropagationMode mode,
                                   const PropagationOptions& opts) {
  const auto& topk = index.topk();
  const size_t k = mode == PropagationMode::kLimit || opts.k == 0
                       ? index.k()
                       : std::min(opts.k, index.k());
  std::vector<double> out(index.num_records());
  for (size_t i = 0; i < out.size(); ++i) {
    double weights = 0.0, weighted = 0.0, best = 0.0;
    float best_d = 0.0f;
    for (size_t j = 0; j < k; ++j) {
      const double s = rep_scores[topk.RepId(i, j)];
      const float d = topk.Dist(i, j);
      // propagation.cc's 1e-6f distance floor, summed in float as stored.
      const double base = d + 1e-6f;
      const double w = 1.0 / std::pow(base, opts.weight_power);
      weights += w;
      weighted += w * s;
      if (j == 0 || s > best || (s == best && d < best_d)) {
        best = s;
        best_d = d;
      }
    }
    out[i] = mode == PropagationMode::kLimit ? best + 0.999 / (1.0 + best_d)
                                             : weighted / weights;
  }
  return out;
}

TEST(PropagationTest, MatchesSerialReference) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> rep_scores = RepresentativeScores(index, scorer);
  for (size_t k : {size_t{1}, size_t{3}, size_t{0}}) {
    for (float power : {1.0f, 2.0f, 3.0f}) {
      PropagationOptions opts;
      opts.k = k;
      opts.weight_power = power;
      EXPECT_EQ(ComputeProxyScores(index, scorer, PropagationMode::kNumeric,
                                   opts),
                ReferenceProxy(index, rep_scores, PropagationMode::kNumeric,
                               opts))
          << "k=" << k << " power=" << power;
    }
  }
  EXPECT_EQ(ComputeProxyScores(index, scorer, PropagationMode::kLimit),
            ReferenceProxy(index, rep_scores, PropagationMode::kLimit, {}));
}

TEST(PropagationTest, RepresentativesGetExactScores) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> rep_scores = RepresentativeScores(index, scorer);
  const std::vector<double> propagated = ComputeProxyScores(index, scorer);
  for (size_t i = 0; i < index.num_representatives(); ++i) {
    const size_t record = index.rep_record_ids()[i];
    // A representative's own weight is ~1/epsilon, dominating the average.
    EXPECT_NEAR(propagated[record], rep_scores[i], 1e-3);
  }
}

TEST(PropagationTest, NumericScoresWithinRepScoreRange) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> rep_scores = RepresentativeScores(index, scorer);
  const double lo = *std::min_element(rep_scores.begin(), rep_scores.end());
  const double hi = *std::max_element(rep_scores.begin(), rep_scores.end());
  for (double score : ComputeProxyScores(index, scorer)) {
    EXPECT_GE(score, lo - 1e-9);
    EXPECT_LE(score, hi + 1e-9);
  }
}

TEST(PropagationTest, KOneEqualsNearestRep) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> rep_scores = RepresentativeScores(index, scorer);
  PropagationOptions opts;
  opts.k = 1;
  const std::vector<double> propagated =
      ComputeProxyScores(index, scorer, PropagationMode::kNumeric, opts);
  for (size_t i = 0; i < index.num_records(); ++i) {
    EXPECT_NEAR(propagated[i], rep_scores[index.topk().RepId(i, 0)], 1e-9);
  }
}

TEST(PropagationTest, LimitScoresPreserveScoreOrdering) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> rep_scores = RepresentativeScores(index, scorer);
  const std::vector<double> limit_scores =
      ComputeProxyScores(index, scorer, PropagationMode::kLimit);
  for (size_t i = 0; i < index.num_records(); ++i) {
    // The primary key is the best score among the stored k neighbors; the
    // tie-break bonus never crosses an integer score boundary.
    double best = rep_scores[index.topk().RepId(i, 0)];
    for (size_t j = 1; j < index.k(); ++j) {
      best = std::max(best, rep_scores[index.topk().RepId(i, j)]);
    }
    EXPECT_GE(limit_scores[i], best);
    EXPECT_LT(limit_scores[i], best + 1.0);
  }
}

TEST(PropagationTest, LimitRanksRecordsNearPositiveRepsFirst) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  AtLeastCountScorer predicate(data::ObjectClass::kCar, 2);
  const std::vector<double> rep_scores = RepresentativeScores(index, predicate);
  const std::vector<double> limit_scores =
      ComputeProxyScores(index, predicate, PropagationMode::kLimit);
  // Any record with a positive-scoring representative among its stored
  // neighbors must outrank every record with none.
  double min_with = 2.0, max_without = -1.0;
  for (size_t i = 0; i < index.num_records(); ++i) {
    bool has_positive = false;
    for (size_t j = 0; j < index.k(); ++j) {
      has_positive |= rep_scores[index.topk().RepId(i, j)] >= 0.5;
    }
    if (has_positive) {
      min_with = std::min(min_with, limit_scores[i]);
    } else {
      max_without = std::max(max_without, limit_scores[i]);
    }
  }
  if (min_with <= 1.0 && max_without >= 0.0) {
    EXPECT_GT(min_with, max_without);
  }
}

TEST(PropagationTest, ProxyQualityBeatsConstantBaseline) {
  // The propagated count proxy should correlate substantially with truth.
  data::Dataset ds = SmallDataset(4000);
  IndexOptions opts = FastIndexOptions();
  opts.num_representatives = 400;
  opts.num_training_records = 400;
  TastiIndex index = BuildSmallIndex(ds, opts);
  CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> proxy = ComputeProxyScores(index, scorer);
  const std::vector<double> exact = ExactScores(ds, scorer);
  EXPECT_GT(PearsonCorrelation(proxy, exact), 0.5);
}

// ---------- Cracking ----------

TEST(CrackingTest, SingleRecordCrackGrowsIndex) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  const size_t before = index.num_representatives();
  size_t new_record = 0;
  while (index.IsRepresentative(new_record)) ++new_record;
  EXPECT_EQ(index.CrackFromLabels({new_record}, {ds.ground_truth[new_record]}),
            1u);
  EXPECT_EQ(index.num_representatives(), before + 1);
  EXPECT_TRUE(index.IsRepresentative(new_record));
  EXPECT_EQ(index.rep_embeddings().rows(), before + 1);
  // The new rep is its own nearest representative at distance 0.
  EXPECT_NEAR(index.topk().Dist(new_record, 0), 0.0f, 1e-5f);
  EXPECT_EQ(index.topk().RepId(new_record, 0), static_cast<uint32_t>(before));
}

TEST(CrackingTest, SingleAddsReallocateGeometricallyNotPerAdd) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);

  // P single-record cracks must trigger O(log P) capacity changes of the
  // representative matrix, not one full-matrix copy per add (the old
  // quadratic growth rebuilt rep_embeddings_ on every add).
  constexpr size_t kAdds = 64;
  size_t capacity_changes = 0;
  size_t prev_capacity = index.rep_embeddings().row_capacity();
  size_t record = 0;
  for (size_t added = 0; added < kAdds; ++record) {
    ASSERT_LT(record, ds.size());
    if (index.IsRepresentative(record)) continue;
    index.CrackFromLabels({record}, {ds.ground_truth[record]});
    ++added;
    const size_t capacity = index.rep_embeddings().row_capacity();
    if (capacity != prev_capacity) {
      ++capacity_changes;
      prev_capacity = capacity;
    }
  }
  EXPECT_LE(capacity_changes, 8u)
      << "rep matrix reallocated per add instead of amortized doubling";
  EXPECT_GE(index.rep_embeddings().row_capacity(),
            index.rep_embeddings().rows());
}

TEST(CrackingTest, CrackingAnExistingRepIsNoop) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  const size_t before = index.num_representatives();
  const size_t existing = index.rep_record_ids()[0];
  EXPECT_EQ(index.CrackFromLabels({existing}, {ds.ground_truth[existing]}), 0u);
  EXPECT_EQ(index.num_representatives(), before);
}

TEST(CrackingTest, CrackFromCacheAddsQueryLabels) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  labeler::CachingFallibleLabeler cache(&adapter);
  // Simulate a query labeling some records.
  std::vector<size_t> touched;
  for (size_t record = 0; touched.size() < 20; ++record) {
    if (!index.IsRepresentative(record)) {
      ASSERT_TRUE(cache.TryLabel(record).ok());
      touched.push_back(record);
    }
  }
  const size_t before = index.num_representatives();
  const size_t added = index.CrackFrom(cache);
  EXPECT_EQ(added, touched.size());
  EXPECT_EQ(index.num_representatives(), before + touched.size());
}

TEST(CrackingTest, DuplicateRecordInOneBatchAddsOneRep) {
  data::Dataset ds = SmallDataset(800);
  IndexOptions opts = FastIndexOptions();
  opts.use_triplet_training = false;
  opts.num_representatives = 60;
  TastiIndex index = BuildSmallIndex(ds, opts);
  size_t record = 0;
  while (index.IsRepresentative(record)) ++record;

  // Log the batch through the WAL exactly as the server does, so replay
  // exercises the same duplicate.
  const std::string dir = ::testing::TempDir() + "/core_crack_duplicate";
  durable::File fs;
  if (fs.Exists(dir)) {
    Result<std::vector<std::string>> stale = fs.List(dir);
    ASSERT_TRUE(stale.ok());
    for (const std::string& name : *stale) (void)fs.Remove(dir + "/" + name);
  }
  durable::DurabilityOptions durability;
  durability.dir = dir;
  durability.fs = &fs;
  Result<std::unique_ptr<durable::DurabilityManager>> manager =
      durable::DurabilityManager::Open(durability, index, /*epoch=*/1);
  ASSERT_TRUE(manager.ok()) << manager.status().message();

  const size_t before = index.num_representatives();
  const std::vector<size_t> records = {record, record};
  const std::vector<data::LabelerOutput> labels(2, ds.ground_truth[record]);
  EXPECT_EQ(index.CrackFromLabels(records, labels), 1u);
  EXPECT_EQ(index.num_representatives(), before + 1);
  EXPECT_EQ(index.rep_embeddings().rows(), before + 1);
  EXPECT_EQ(index.topk().RepId(record, 0), static_cast<uint32_t>(before));

  durable::WalRecord crack;
  crack.type = durable::WalRecordType::kCrack;
  crack.records = {record, record};
  crack.labels = labels;
  ASSERT_TRUE((*manager)->Log(std::move(crack)).ok());
  ASSERT_TRUE((*manager)->CommitEpoch(index, /*epoch=*/2).ok());

  Result<durable::RecoveredState> recovered = durable::Recover(&fs, dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered->stats.cracks_replayed, 1u);
  EXPECT_EQ(recovered->index.num_representatives(), before + 1);
  EXPECT_EQ(IndexSerializer::SerializeToString(recovered->index).value(),
            IndexSerializer::SerializeToString(index).value());
}

TEST(CrackingTest, CrackingNeverIncreasesNearestDistance) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  std::vector<float> before(index.num_records());
  for (size_t i = 0; i < index.num_records(); ++i) {
    before[i] = index.topk().Dist(i, 0);
  }
  size_t new_record = 1;
  while (index.IsRepresentative(new_record)) ++new_record;
  index.CrackFromLabels({new_record}, {ds.ground_truth[new_record]});
  for (size_t i = 0; i < index.num_records(); ++i) {
    EXPECT_LE(index.topk().Dist(i, 0), before[i] + 1e-6f);
  }
}

// ---------- Streaming ingestion & retained embedder ----------

TEST(StreamingTest, BuildRetainsEmbedder) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  ASSERT_NE(index.embedder(), nullptr);
  EXPECT_EQ(index.embedder()->embedding_dim(), 16u);
  // Pretrained variant retains the pretrained embedder.
  IndexOptions pt_opts = FastIndexOptions();
  pt_opts.use_triplet_training = false;
  TastiIndex pt = BuildSmallIndex(ds, pt_opts);
  ASSERT_NE(pt.embedder(), nullptr);
}

TEST(StreamingTest, AppendRecordsExtendsIndex) {
  data::Dataset ds = SmallDataset(1500);
  TastiIndex index = BuildSmallIndex(ds);
  const size_t before = index.num_records();

  // New footage: 300 more frames from the same camera.
  data::DatasetOptions more_opts;
  more_opts.num_records = 300;
  more_opts.seed = 77;
  data::Dataset more = data::MakeNightStreet(more_opts);
  const size_t first_new = index.AppendRecords(more.features);
  EXPECT_EQ(first_new, before);
  EXPECT_EQ(index.num_records(), before + 300);
  EXPECT_EQ(index.topk().num_records, before + 300);
  // New records have valid, ascending min-k lists over existing reps.
  for (size_t i = first_new; i < index.num_records(); ++i) {
    for (size_t j = 0; j < index.k(); ++j) {
      EXPECT_LT(index.topk().RepId(i, j), index.num_representatives());
      if (j > 0) {
        EXPECT_LE(index.topk().Dist(i, j - 1), index.topk().Dist(i, j));
      }
    }
    EXPECT_FALSE(index.IsRepresentative(i));
  }
}

TEST(StreamingTest, AppendedRecordsGetProxyScores) {
  data::Dataset ds = SmallDataset(1500);
  TastiIndex index = BuildSmallIndex(ds);
  data::DatasetOptions more_opts;
  more_opts.num_records = 200;
  more_opts.seed = 78;
  data::Dataset more = data::MakeNightStreet(more_opts);
  index.AppendRecords(more.features);

  CountScorer scorer(data::ObjectClass::kCar);
  const auto proxy = ComputeProxyScores(index, scorer);
  EXPECT_EQ(proxy.size(), index.num_records());
  // Appended records' scores lie within the representative score range.
  const auto rep_scores = RepresentativeScores(index, scorer);
  const double lo = *std::min_element(rep_scores.begin(), rep_scores.end());
  const double hi = *std::max_element(rep_scores.begin(), rep_scores.end());
  for (size_t i = 1500; i < proxy.size(); ++i) {
    EXPECT_GE(proxy[i], lo - 1e-9);
    EXPECT_LE(proxy[i], hi + 1e-9);
  }
}

TEST(StreamingTest, AppendedRecordsCanBeCracked) {
  data::Dataset ds = SmallDataset(1000);
  TastiIndex index = BuildSmallIndex(ds);
  data::DatasetOptions more_opts;
  more_opts.num_records = 100;
  more_opts.seed = 79;
  data::Dataset more = data::MakeNightStreet(more_opts);
  const size_t first_new = index.AppendRecords(more.features);
  const size_t before = index.num_representatives();
  index.CrackFromLabels({first_new}, {more.ground_truth[0]});
  EXPECT_EQ(index.num_representatives(), before + 1);
  EXPECT_TRUE(index.IsRepresentative(first_new));
  EXPECT_NEAR(index.topk().Dist(first_new, 0), 0.0f, 1e-5f);
}

TEST(StreamingTest, LoadedIndexCanAppend) {
  data::Dataset ds = SmallDataset(800);
  IndexOptions opts = FastIndexOptions();
  opts.num_representatives = 80;
  opts.num_training_records = 80;
  TastiIndex index = BuildSmallIndex(ds, opts);
  Result<TastiIndex> loaded = IndexSerializer::DeserializeFromString(
      IndexSerializer::SerializeToString(index).value());
  ASSERT_TRUE(loaded.ok());
  ASSERT_NE(loaded->embedder(), nullptr);

  data::DatasetOptions more_opts;
  more_opts.num_records = 50;
  more_opts.seed = 81;
  data::Dataset more = data::MakeNightStreet(more_opts);
  loaded->AppendRecords(more.features);
  EXPECT_EQ(loaded->num_records(), 850u);

  // The loaded (trained) embedder reproduces the original's geometry: the
  // appended rows' nearest reps match what the original index computes.
  index.AppendRecords(more.features);
  for (size_t i = 800; i < 850; ++i) {
    EXPECT_EQ(loaded->topk().RepId(i, 0), index.topk().RepId(i, 0));
  }
}

// ---------- Index statistics ----------

TEST(IndexStatsTest, ComputesCoverageAndBalance) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  IndexStats stats = ComputeIndexStats(index);
  EXPECT_EQ(stats.num_records, ds.size());
  EXPECT_EQ(stats.num_representatives, index.num_representatives());
  EXPECT_GE(stats.max_nearest_distance, stats.p99_nearest_distance);
  EXPECT_GE(stats.p99_nearest_distance, stats.mean_nearest_distance);
  EXPECT_GT(stats.mean_nearest_distance, 0.0);
  EXPECT_GE(stats.largest_cluster, 1u);
  EXPECT_NEAR(stats.mean_cluster_size,
              static_cast<double>(ds.size()) / index.num_representatives(),
              1e-9);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(IndexStatsTest, MoreRepsShrinkCoverage) {
  data::Dataset ds = SmallDataset();
  IndexOptions small_opts = FastIndexOptions();
  small_opts.num_representatives = 50;
  IndexOptions large_opts = FastIndexOptions();
  large_opts.num_representatives = 400;
  TastiIndex small = BuildSmallIndex(ds, small_opts);
  TastiIndex large = BuildSmallIndex(ds, large_opts);
  EXPECT_LT(ComputeIndexStats(large).mean_nearest_distance,
            ComputeIndexStats(small).mean_nearest_distance);
}

TEST(IndexStatsTest, CrackingShrinksCoverage) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  const double before = ComputeIndexStats(index).mean_nearest_distance;
  size_t added = 0;
  for (size_t record = 0; record < ds.size() && added < 100; ++record) {
    if (!index.IsRepresentative(record)) {
      index.CrackFromLabels({record}, {ds.ground_truth[record]});
      ++added;
    }
  }
  EXPECT_LE(ComputeIndexStats(index).mean_nearest_distance, before);
}

TEST(IndexStatsTest, FpfRepsOverCoverRareTail) {
  // FPF clustering should allocate representatives to rare busy frames at
  // a rate far above their base frequency — the mechanism behind the
  // paper's limit-query results.
  data::DatasetOptions ds_opts;
  ds_opts.num_records = 8000;
  ds_opts.seed = 42;
  data::Dataset ds = data::MakeNightStreet(ds_opts);
  IndexOptions opts = FastIndexOptions();
  opts.num_representatives = 400;
  opts.num_training_records = 400;
  TastiIndex index = BuildSmallIndex(ds, opts);

  AtLeastCountScorer busy(data::ObjectClass::kCar, 4);
  size_t busy_total = 0;
  for (const auto& label : ds.ground_truth) {
    if (busy.Score(label) >= 0.5) ++busy_total;
  }
  size_t busy_reps = 0;
  for (const auto& label : index.rep_labels()) {
    if (busy.Score(label) >= 0.5) ++busy_reps;
  }
  if (busy_total < 10) GTEST_SKIP() << "too few rare events at this scale";
  const double base_rate = static_cast<double>(busy_total) / ds.size();
  const double rep_rate =
      static_cast<double>(busy_reps) / index.num_representatives();
  EXPECT_GT(rep_rate, base_rate);
}

// ---------- Drift detection ----------

TEST(DriftTest, NoDriftOnSameDistribution) {
  data::Dataset ds = SmallDataset(1500);
  TastiIndex index = BuildSmallIndex(ds);
  // More footage statistically identical to the indexed stretch (a replay
  // of a slice of it): no drift.
  const nn::Matrix replay = ds.features.RowSlice(1000, 1500);
  const size_t first_new = index.AppendRecords(replay);
  const DriftReport report = DetectDrift(index, first_new);
  EXPECT_FALSE(report.drifted) << report.ToString();
  EXPECT_NEAR(report.mean_ratio, 1.0, 0.25);
}

TEST(DriftTest, DetectsDistributionShift) {
  data::Dataset ds = SmallDataset(1500);
  TastiIndex index = BuildSmallIndex(ds);
  // The camera now watches a different scene: taipei footage through the
  // night-street sensor geometry (same feature width).
  data::DatasetOptions shifted_opts;
  shifted_opts.num_records = 500;
  shifted_opts.seed = 99;
  data::Dataset shifted = data::MakeTaipei(shifted_opts);
  const size_t first_new = index.AppendRecords(shifted.features);
  const DriftReport report = DetectDrift(index, first_new);
  EXPECT_TRUE(report.drifted) << report.ToString();
  EXPECT_GT(report.recent_mean, report.baseline_mean);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(DriftTest, TopKOverloadMatchesTheIndexOverload) {
  // The serving monitor detects drift from an IndexSnapshot's copied
  // min-k lists without holding the index; the two entry points must
  // agree exactly.
  data::Dataset ds = SmallDataset(1500);
  TastiIndex index = BuildSmallIndex(ds);
  data::DatasetOptions shifted_opts;
  shifted_opts.num_records = 300;
  shifted_opts.seed = 97;
  data::Dataset shifted = data::MakeTaipei(shifted_opts);
  const size_t first_new = index.AppendRecords(shifted.features);

  const DriftReport via_index = DetectDrift(index, first_new);
  const DriftReport via_topk =
      DetectDrift(index.topk(), index.num_records(), first_new);
  EXPECT_DOUBLE_EQ(via_topk.baseline_mean, via_index.baseline_mean);
  EXPECT_DOUBLE_EQ(via_topk.recent_mean, via_index.recent_mean);
  EXPECT_DOUBLE_EQ(via_topk.mean_ratio, via_index.mean_ratio);
  EXPECT_EQ(via_topk.drifted, via_index.drifted);
}

TEST(DriftTest, DegradedIndexStillDetectsShift) {
  // An index built against a faulty oracle keeps its failed
  // representatives (marked invalid) — drift detection works off min-k
  // distances, which exist regardless of annotation state, so a degraded
  // index must still flag a scene change.
  data::Dataset ds = SmallDataset(1500);
  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.permanent_rate = 0.05;
  sched.seed = 11;
  labeler::FaultInjectingLabeler inj(&sim, sched);
  TastiIndex index = TastiIndex::Build(ds, &inj, FastIndexOptions());
  ASSERT_GT(index.num_failed_representatives(), 0u);

  data::DatasetOptions shifted_opts;
  shifted_opts.num_records = 400;
  shifted_opts.seed = 99;
  data::Dataset shifted = data::MakeTaipei(shifted_opts);
  const size_t first_new = index.AppendRecords(shifted.features);
  const DriftReport report = DetectDrift(index, first_new);
  EXPECT_TRUE(report.drifted) << report.ToString();
  EXPECT_GT(report.mean_ratio, 1.3);
}

TEST(DriftTest, CrackingRestoresCoverage) {
  data::Dataset ds = SmallDataset(1500);
  TastiIndex index = BuildSmallIndex(ds);
  data::DatasetOptions shifted_opts;
  shifted_opts.num_records = 400;
  shifted_opts.seed = 98;
  data::Dataset shifted = data::MakeTaipei(shifted_opts);
  const size_t first_new = index.AppendRecords(shifted.features);
  const DriftReport before = DetectDrift(index, first_new);
  // Crack in labels for a slice of the new records.
  for (size_t i = 0; i < 100; ++i) {
    index.CrackFromLabels({first_new + i * 4}, {shifted.ground_truth[i * 4]});
  }
  const DriftReport after = DetectDrift(index, first_new);
  EXPECT_LT(after.recent_mean, before.recent_mean);
}

// ---------- Serialization ----------

TEST(SerializeTest, RoundTripPreservesIndex) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  const std::string buffer = IndexSerializer::SerializeToString(index).value();
  Result<TastiIndex> loaded = IndexSerializer::DeserializeFromString(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const TastiIndex& restored = *loaded;
  EXPECT_EQ(restored.num_records(), index.num_records());
  EXPECT_EQ(restored.num_representatives(), index.num_representatives());
  EXPECT_EQ(restored.k(), index.k());
  for (size_t i = 0; i < index.num_representatives(); ++i) {
    EXPECT_EQ(restored.rep_record_ids()[i], index.rep_record_ids()[i]);
    EXPECT_EQ(data::CountBoxes(restored.rep_labels()[i]),
              data::CountBoxes(index.rep_labels()[i]));
  }
  for (size_t i = 0; i < index.topk().distances.size(); ++i) {
    EXPECT_EQ(restored.topk().distances[i], index.topk().distances[i]);
    EXPECT_EQ(restored.topk().rep_ids[i], index.topk().rep_ids[i]);
  }
}

TEST(SerializeTest, RoundTripProxiesMatch) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> before = ComputeProxyScores(index, scorer);
  Result<TastiIndex> loaded = IndexSerializer::DeserializeFromString(
      IndexSerializer::SerializeToString(index).value());
  ASSERT_TRUE(loaded.ok());
  const std::vector<double> after = ComputeProxyScores(*loaded, scorer);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]);
  }
}

TEST(SerializeTest, FileRoundTrip) {
  data::Dataset ds = SmallDataset(500);
  IndexOptions opts = FastIndexOptions();
  opts.num_representatives = 50;
  opts.num_training_records = 50;
  TastiIndex index = BuildSmallIndex(ds, opts);
  const std::string path = ::testing::TempDir() + "/tasti_index.bin";
  ASSERT_TRUE(IndexSerializer::Save(index, path).ok());
  Result<TastiIndex> loaded = IndexSerializer::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_representatives(), index.num_representatives());
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsGarbage) {
  Result<TastiIndex> r = IndexSerializer::DeserializeFromString("not an index");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, RejectsTruncatedBuffer) {
  data::Dataset ds = SmallDataset(300);
  IndexOptions opts = FastIndexOptions();
  opts.num_representatives = 30;
  opts.num_training_records = 30;
  TastiIndex index = BuildSmallIndex(ds, opts);
  std::string buffer = IndexSerializer::SerializeToString(index).value();
  buffer.resize(buffer.size() / 2);
  Result<TastiIndex> r = IndexSerializer::DeserializeFromString(buffer);
  EXPECT_FALSE(r.ok());
}

TEST(SerializeTest, LoadMissingFileFails) {
  Result<TastiIndex> r = IndexSerializer::Load("/nonexistent/path/index.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(SerializeTest, CrackingWorksAfterLoad) {
  data::Dataset ds = SmallDataset(500);
  IndexOptions opts = FastIndexOptions();
  opts.num_representatives = 50;
  opts.num_training_records = 50;
  TastiIndex index = BuildSmallIndex(ds, opts);
  Result<TastiIndex> loaded = IndexSerializer::DeserializeFromString(
      IndexSerializer::SerializeToString(index).value());
  ASSERT_TRUE(loaded.ok());
  size_t new_record = 0;
  while (loaded->IsRepresentative(new_record)) ++new_record;
  const size_t before = loaded->num_representatives();
  loaded->CrackFromLabels({new_record}, {ds.ground_truth[new_record]});
  EXPECT_EQ(loaded->num_representatives(), before + 1);
}

}  // namespace
}  // namespace tasti::core
