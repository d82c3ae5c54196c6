#include "embed/triplet_trainer.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "cluster/fpf.h"
#include "nn/kernels.h"
#include "nn/optimizer.h"
#include "nn/triplet.h"
#include "obs/trace.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace tasti::embed {

TrainedEmbedder::TrainedEmbedder(nn::Mlp model, size_t embedding_dim)
    : model_(std::move(model)), embedding_dim_(embedding_dim) {}

nn::Matrix TrainedEmbedder::Embed(const nn::Matrix& features) const {
  nn::Matrix out(features.rows(), embedding_dim_);
  ParallelFor(0, features.rows(), [&](size_t lo, size_t hi) {
    const nn::Matrix block = features.RowSlice(lo, hi);
    const nn::Matrix embedded = model_.Infer(block);
    for (size_t r = lo; r < hi; ++r) out.SetRow(r, embedded, r - lo);
  }, 512);
  return out;
}

namespace {

// Buckets of training positions (positions index training_indices, not the
// dataset), keyed by the closeness bucket key of each annotation.
using Buckets = std::vector<std::vector<size_t>>;

Buckets BucketTrainingData(const std::vector<data::LabelerOutput>& annotations,
                           const data::BucketKeyFn& bucket_key) {
  std::unordered_map<uint64_t, std::vector<size_t>> by_key;
  for (size_t i = 0; i < annotations.size(); ++i) {
    by_key[bucket_key(annotations[i])].push_back(i);
  }
  Buckets buckets;
  buckets.reserve(by_key.size());
  for (auto& [key, members] : by_key) buckets.push_back(std::move(members));
  return buckets;
}

// One mined triplet: positions into the training set, with alternative
// negative candidates for semi-hard selection.
struct Triplet {
  size_t anchor, positive;
  std::vector<size_t> negative_candidates;
};

// Samples a batch of triplets: anchor/positive from one bucket (which must
// have >= 2 members), negative candidates from different buckets (paper
// Section 3.1).
std::vector<Triplet> SampleTriplets(const Buckets& buckets, size_t count,
                                    size_t candidates_per_triplet, Rng* rng) {
  std::vector<size_t> eligible_anchor_buckets;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b].size() >= 2) eligible_anchor_buckets.push_back(b);
  }
  std::vector<Triplet> triplets;
  if (eligible_anchor_buckets.empty() || buckets.size() < 2) return triplets;
  triplets.reserve(count);
  for (size_t t = 0; t < count; ++t) {
    const size_t ab = eligible_anchor_buckets[rng->UniformInt(
        eligible_anchor_buckets.size())];
    const auto& apos = buckets[ab];
    Triplet trip;
    trip.anchor = apos[rng->UniformInt(apos.size())];
    do {
      trip.positive = apos[rng->UniformInt(apos.size())];
    } while (trip.positive == trip.anchor);
    for (size_t c = 0; c < candidates_per_triplet; ++c) {
      size_t nb = rng->UniformInt(buckets.size());
      while (nb == ab) nb = rng->UniformInt(buckets.size());
      const auto& nneg = buckets[nb];
      trip.negative_candidates.push_back(nneg[rng->UniformInt(nneg.size())]);
    }
    triplets.push_back(trip);
  }
  return triplets;
}

// Semi-hard negative selection (Schroff et al. 2015): under the current
// embedding, prefer the closest negative that is still further from the
// anchor than the positive; if none qualifies, take the hardest (closest)
// candidate. `embedded` holds a batch of b triplets as [anchors; positives;
// candidates] rows, each anchor's candidates contiguous. Returns the 3b
// rows the training step keeps: anchors, positives, then the picks.
std::vector<size_t> PickSemiHardNegatives(const nn::Matrix& embedded, size_t b,
                                          size_t candidates) {
  std::vector<size_t> kept(3 * b);
  for (size_t r = 0; r < 2 * b; ++r) kept[r] = r;
  std::vector<float> cand_d2(candidates);
  for (size_t i = 0; i < b; ++i) {
    const size_t anchor_row = i;
    const float dp = nn::Distance(embedded, anchor_row, embedded, b + i);
    // Each anchor's candidate rows are contiguous; one batched pass
    // replaces the per-candidate scalar distance loop.
    const size_t cand_begin = 2 * b + i * candidates;
    nn::SquaredDistanceOneToMany(embedded, cand_begin, cand_begin + candidates,
                                 embedded.Row(anchor_row), cand_d2.data());
    float best_semi = -1.0f;
    float best_hard = -1.0f;
    size_t semi_pick = 0, hard_pick = 0;
    for (size_t c = 0; c < candidates; ++c) {
      const float dn = std::sqrt(cand_d2[c]);
      if (dn > dp && (best_semi < 0.0f || dn < best_semi)) {
        best_semi = dn;
        semi_pick = c;
      }
      if (best_hard < 0.0f || dn < best_hard) {
        best_hard = dn;
        hard_pick = c;
      }
    }
    kept[2 * b + i] = cand_begin + (best_semi >= 0.0f ? semi_pick : hard_pick);
  }
  return kept;
}

}  // namespace

TripletTrainResult TrainTripletEmbedder(const nn::Matrix& features,
                                        const Embedder& pretrained,
                                        labeler::TargetLabeler* labeler,
                                        const data::ClosenessSpec& closeness,
                                        const TripletTrainOptions& options) {
  TASTI_CHECK(labeler != nullptr, "TrainTripletEmbedder requires a labeler");
  TASTI_CHECK(features.rows() == labeler->num_records(),
              "features/labeler record count mismatch");
  TASTI_CHECK(options.num_training_records >= 4,
              "need at least 4 training records");

  Rng rng(options.seed);
  TripletTrainResult result;

  // Step 1-2: mine training records (FPF over pretrained embeddings, or
  // uniform random for the ablation).
  const size_t n1 = std::min(options.num_training_records, features.rows());
  {
    TASTI_SPAN("index.fpf_mine");
    if (options.use_fpf_mining) {
      nn::Matrix pre;
      {
        TASTI_SPAN("index.pretrained_embed");
        pre = pretrained.Embed(features);
      }
      cluster::FpfResult fpf = cluster::FurthestPointFirst(
          pre, n1, static_cast<size_t>(rng.UniformInt(pre.rows())));
      result.training_indices = fpf.centers;
    } else {
      result.training_indices =
          cluster::RandomSelection(features.rows(), n1, &rng);
    }
  }

  // Step 3: annotate and bucket.
  std::vector<data::LabelerOutput> annotations;
  {
    TASTI_SPAN("index.annotate_train");
    annotations = labeler->LabelBatch(result.training_indices);
  }
  const Buckets buckets = BucketTrainingData(annotations, closeness.bucket_key);

  // Step 4: triplet training.
  nn::Mlp model = nn::Mlp::MakeEmbeddingNet(features.cols(), options.hidden_dim,
                                            options.embedding_dim, &rng);
  nn::Adam::Options adam_options;
  adam_options.learning_rate = options.learning_rate;
  nn::Adam optimizer(model.Params(), adam_options);

  const nn::Matrix train_features = features.GatherRows(result.training_indices);
  // Triplets sampled per epoch: twice the training set.
  const size_t triplets_per_epoch = 2 * result.training_indices.size();

  const size_t candidates = std::max<size_t>(1, options.negative_candidates);
  TASTI_SPAN("index.triplet_train");
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    std::vector<Triplet> triplets =
        SampleTriplets(buckets, triplets_per_epoch, candidates, &rng);
    if (triplets.empty()) break;  // degenerate bucketing (e.g. one bucket)
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < triplets.size(); start += options.batch_size) {
      const size_t end = std::min(triplets.size(), start + options.batch_size);
      const size_t b = end - start;
      // One forward pass over anchors, positives and every candidate: the
      // pick reads its embeddings, and the layer caches, narrowed to the
      // kept rows, serve the backward pass. Rows are independent through
      // every layer, so this equals a forward over the kept rows alone.
      model.ZeroGrad();
      nn::Matrix embedded;
      {
        TASTI_SPAN("index.triplet_forward");
        std::vector<size_t> rows;
        rows.reserve(b * (2 + candidates));
        for (size_t i = start; i < end; ++i) rows.push_back(triplets[i].anchor);
        for (size_t i = start; i < end; ++i) rows.push_back(triplets[i].positive);
        for (size_t i = start; i < end; ++i) {
          for (size_t c : triplets[i].negative_candidates) rows.push_back(c);
        }
        embedded = model.Forward(train_features.GatherRows(rows));
      }
      nn::Matrix negatives;
      {
        TASTI_SPAN("index.triplet_pick");
        const std::vector<size_t> kept =
            PickSemiHardNegatives(embedded, b, candidates);
        model.KeepCachedRows(kept);
        negatives = embedded.GatherRows(
            std::vector<size_t>(kept.begin() + 2 * b, kept.end()));
      }
      nn::TripletLossResult loss;
      {
        TASTI_SPAN("index.triplet_backward");
        const nn::Matrix anchors = embedded.RowSlice(0, b);
        const nn::Matrix positives = embedded.RowSlice(b, 2 * b);
        loss = nn::TripletLoss(anchors, positives, negatives, options.margin);
        nn::Matrix grad(3 * b, options.embedding_dim);
        for (size_t i = 0; i < b; ++i) {
          grad.SetRow(i, loss.grad_anchor, i);
          grad.SetRow(b + i, loss.grad_positive, i);
          grad.SetRow(2 * b + i, loss.grad_negative, i);
        }
        model.Backward(grad);
      }
      {
        TASTI_SPAN("index.triplet_step");
        optimizer.Step();
      }
      epoch_loss += loss.loss;
      ++batches;
    }
    result.epoch_losses.push_back(batches > 0 ? epoch_loss / batches : 0.0);
  }

  result.final_loss =
      result.epoch_losses.empty() ? 0.0 : result.epoch_losses.back();
  result.embedder =
      std::make_unique<TrainedEmbedder>(std::move(model), options.embedding_dim);
  return result;
}

}  // namespace tasti::embed
