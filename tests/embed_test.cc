// Unit tests for embed/: the pretrained embedder and the triplet training
// pipeline (training loss decreases; trained embeddings respect the
// closeness structure better than pretrained ones).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "data/dataset.h"
#include "embed/pretrained.h"
#include "embed/triplet_trainer.h"
#include "labeler/labeler.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace tasti::embed {
namespace {

data::Dataset TestDataset(size_t n = 2000) {
  data::DatasetOptions opts;
  opts.num_records = n;
  opts.seed = 7;
  return data::MakeNightStreet(opts);
}

TripletTrainOptions FastTrainOptions() {
  TripletTrainOptions opts;
  opts.num_training_records = 300;
  opts.embedding_dim = 16;
  opts.hidden_dim = 32;
  opts.epochs = 15;
  opts.seed = 5;
  return opts;
}

TEST(PretrainedEmbedderTest, ShapeAndUnitNorm) {
  data::Dataset ds = TestDataset(200);
  PretrainedEmbedder embedder(ds.feature_dim(), 24, 3);
  nn::Matrix emb = embedder.Embed(ds.features);
  EXPECT_EQ(emb.rows(), ds.size());
  EXPECT_EQ(emb.cols(), 24u);
  EXPECT_EQ(embedder.embedding_dim(), 24u);
  for (size_t r = 0; r < emb.rows(); ++r) {
    float norm2 = 0.0f;
    for (size_t c = 0; c < emb.cols(); ++c) norm2 += emb.At(r, c) * emb.At(r, c);
    EXPECT_NEAR(norm2, 1.0f, 1e-4f);
  }
}

TEST(PretrainedEmbedderTest, DeterministicInSeed) {
  data::Dataset ds = TestDataset(100);
  PretrainedEmbedder a(ds.feature_dim(), 16, 9);
  PretrainedEmbedder b(ds.feature_dim(), 16, 9);
  nn::Matrix ea = a.Embed(ds.features);
  nn::Matrix eb = b.Embed(ds.features);
  for (size_t i = 0; i < ea.size(); ++i) EXPECT_EQ(ea.data()[i], eb.data()[i]);
}

TEST(TripletTrainerTest, ConsumesExactTrainingBudget) {
  data::Dataset ds = TestDataset(1000);
  PretrainedEmbedder pretrained(ds.feature_dim(), 16, 1);
  labeler::SimulatedLabeler oracle(&ds);
  TripletTrainOptions opts = FastTrainOptions();
  TripletTrainResult result = TrainTripletEmbedder(ds.features, pretrained,
                                                   &oracle, ds.closeness, opts);
  EXPECT_EQ(oracle.invocations(), opts.num_training_records);
  EXPECT_EQ(result.training_indices.size(), opts.num_training_records);
}

TEST(TripletTrainerTest, LossDecreases) {
  data::Dataset ds = TestDataset(1500);
  PretrainedEmbedder pretrained(ds.feature_dim(), 16, 2);
  labeler::SimulatedLabeler oracle(&ds);
  TripletTrainResult result = TrainTripletEmbedder(
      ds.features, pretrained, &oracle, ds.closeness, FastTrainOptions());
  ASSERT_GE(result.epoch_losses.size(), 2u);
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front());
}

TEST(TripletTrainerTest, TrainedEmbedderHasRequestedDim) {
  data::Dataset ds = TestDataset(800);
  PretrainedEmbedder pretrained(ds.feature_dim(), 16, 3);
  labeler::SimulatedLabeler oracle(&ds);
  TripletTrainResult result = TrainTripletEmbedder(
      ds.features, pretrained, &oracle, ds.closeness, FastTrainOptions());
  ASSERT_NE(result.embedder, nullptr);
  EXPECT_EQ(result.embedder->embedding_dim(), 16u);
  nn::Matrix emb = result.embedder->Embed(ds.features);
  EXPECT_EQ(emb.rows(), ds.size());
  EXPECT_EQ(emb.cols(), 16u);
}

// Mean embedding distance between pairs that are close under the dataset's
// closeness function, divided by the mean distance of far pairs. Lower is
// better separation.
double CloseFarDistanceRatio(const data::Dataset& ds, const nn::Matrix& emb,
                             size_t pairs, uint64_t seed) {
  Rng rng(seed);
  RunningStats close_d, far_d;
  size_t attempts = 0;
  while ((close_d.count() < pairs || far_d.count() < pairs) &&
         attempts < pairs * 200) {
    ++attempts;
    const size_t i = rng.UniformInt(ds.size());
    const size_t j = rng.UniformInt(ds.size());
    if (i == j) continue;
    const double d = nn::Distance(emb, i, emb, j);
    if (ds.closeness.is_close(ds.ground_truth[i], ds.ground_truth[j])) {
      if (close_d.count() < pairs) close_d.Add(d);
    } else {
      if (far_d.count() < pairs) far_d.Add(d);
    }
  }
  if (far_d.mean() <= 0.0) return 1.0;
  return close_d.mean() / far_d.mean();
}

TEST(TripletTrainerTest, TrainedSeparatesBetterThanPretrained) {
  data::Dataset ds = TestDataset(3000);
  PretrainedEmbedder pretrained(ds.feature_dim(), 24, 4);
  labeler::SimulatedLabeler oracle(&ds);
  TripletTrainOptions opts = FastTrainOptions();
  opts.embedding_dim = 24;
  opts.num_training_records = 500;
  opts.epochs = 25;
  TripletTrainResult result = TrainTripletEmbedder(ds.features, pretrained,
                                                   &oracle, ds.closeness, opts);

  const nn::Matrix pre_emb = pretrained.Embed(ds.features);
  const nn::Matrix trained_emb = result.embedder->Embed(ds.features);
  const double pre_ratio = CloseFarDistanceRatio(ds, pre_emb, 300, 42);
  const double trained_ratio = CloseFarDistanceRatio(ds, trained_emb, 300, 42);
  // The trained embedding should compress close pairs relative to far
  // pairs more than the generic pretrained embedding does.
  EXPECT_LT(trained_ratio, pre_ratio);
  EXPECT_LT(trained_ratio, 0.9);
}

TEST(TripletTrainerTest, RandomMiningStillTrains) {
  data::Dataset ds = TestDataset(1000);
  PretrainedEmbedder pretrained(ds.feature_dim(), 16, 5);
  labeler::SimulatedLabeler oracle(&ds);
  TripletTrainOptions opts = FastTrainOptions();
  opts.use_fpf_mining = false;
  TripletTrainResult result = TrainTripletEmbedder(ds.features, pretrained,
                                                   &oracle, ds.closeness, opts);
  EXPECT_NE(result.embedder, nullptr);
  EXPECT_EQ(result.training_indices.size(), opts.num_training_records);
}

TEST(TripletTrainerTest, DeterministicInSeed) {
  data::Dataset ds = TestDataset(800);
  PretrainedEmbedder pretrained(ds.feature_dim(), 16, 6);
  TripletTrainOptions opts = FastTrainOptions();
  labeler::SimulatedLabeler oracle_a(&ds);
  labeler::SimulatedLabeler oracle_b(&ds);
  TripletTrainResult a = TrainTripletEmbedder(ds.features, pretrained,
                                              &oracle_a, ds.closeness, opts);
  TripletTrainResult b = TrainTripletEmbedder(ds.features, pretrained,
                                              &oracle_b, ds.closeness, opts);
  nn::Matrix ea = a.embedder->Embed(ds.features);
  nn::Matrix eb = b.embedder->Embed(ds.features);
  for (size_t i = 0; i < ea.size(); ++i) {
    ASSERT_EQ(ea.data()[i], eb.data()[i]) << "divergence at " << i;
  }
}

TEST(TripletTrainerTest, PoolAndInlineTrainIdentically) {
  data::Dataset ds = TestDataset(1000);
  PretrainedEmbedder pretrained(ds.feature_dim(), 16, 8);
  TripletTrainOptions opts = FastTrainOptions();
  // Wide enough that each batch's first-layer forward GEMM (6 * 128 rows x
  // 64 x 256, about 12.6M multiply-adds) splits across the pool when
  // called from the test thread.
  opts.hidden_dim = 256;
  opts.batch_size = 128;
  opts.epochs = 4;
  ASSERT_GT(6 * opts.batch_size * ds.feature_dim() * opts.hidden_dim,
            2 * nn::kGemmMinShardMacs);

  labeler::SimulatedLabeler oracle_a(&ds);
  TripletTrainResult pooled = TrainTripletEmbedder(ds.features, pretrained,
                                                   &oracle_a, ds.closeness, opts);
  // Inside a ParallelFor shard every nested ParallelFor runs inline, so
  // this run computes each GEMM on one thread.
  TripletTrainResult inlined;
  ParallelFor(0, 2, [&](size_t lo, size_t) {
    if (lo != 0) return;
    labeler::SimulatedLabeler oracle_b(&ds);
    inlined = TrainTripletEmbedder(ds.features, pretrained, &oracle_b,
                                   ds.closeness, opts);
  }, 1);
  ASSERT_NE(inlined.embedder, nullptr);

  EXPECT_EQ(pooled.epoch_losses, inlined.epoch_losses);
  const nn::Matrix ea = pooled.embedder->Embed(ds.features);
  const nn::Matrix eb = inlined.embedder->Embed(ds.features);
  ASSERT_EQ(ea.size(), eb.size());
  EXPECT_EQ(std::memcmp(ea.data(), eb.data(), ea.size() * sizeof(float)), 0);
}

TEST(TrainedEmbedderTest, BatchedInferenceMatchesWhole) {
  data::Dataset ds = TestDataset(500);
  PretrainedEmbedder pretrained(ds.feature_dim(), 16, 7);
  labeler::SimulatedLabeler oracle(&ds);
  TripletTrainResult result = TrainTripletEmbedder(
      ds.features, pretrained, &oracle, ds.closeness, FastTrainOptions());
  const auto* trained = static_cast<const TrainedEmbedder*>(result.embedder.get());
  nn::Matrix whole = trained->Embed(ds.features);
  // Row-by-row inference must agree with the blocked parallel path.
  for (size_t r = 0; r < 20; ++r) {
    nn::Matrix row = ds.features.RowSlice(r, r + 1);
    nn::Matrix single = trained->model().Infer(row);
    for (size_t c = 0; c < single.cols(); ++c) {
      EXPECT_NEAR(whole.At(r, c), single.At(0, c), 1e-5f);
    }
  }
}

}  // namespace
}  // namespace tasti::embed
