#ifndef TASTI_EMBED_TRIPLET_TRAINER_H_
#define TASTI_EMBED_TRIPLET_TRAINER_H_

/// \file triplet_trainer.h
/// The TASTI-T training pipeline (paper Section 3.1, Figure 1a):
///
///  1. embed all records with a pretrained embedder;
///  2. FPF-mine a diverse set of N1 training records (ablation: random);
///  3. annotate them with the target labeler and bucket the annotations by
///     the closeness function;
///  4. sample triplets (anchor + positive from one bucket, negative from
///     another) and train an MLP embedder with the triplet loss.

#include <cstdint>
#include <memory>
#include <vector>

#include "data/closeness.h"
#include "embed/embedder.h"
#include "labeler/labeler.h"
#include "nn/mlp.h"

namespace tasti::embed {

/// An embedder backed by a trained MLP.
class TrainedEmbedder : public Embedder {
 public:
  TrainedEmbedder(nn::Mlp model, size_t embedding_dim);

  /// Batched, multithreaded inference over record blocks.
  nn::Matrix Embed(const nn::Matrix& features) const override;
  size_t embedding_dim() const override { return embedding_dim_; }

  const nn::Mlp& model() const { return model_; }

 private:
  nn::Mlp model_;
  size_t embedding_dim_;
};

/// Triplet training hyperparameters.
struct TripletTrainOptions {
  /// N1: target labeler annotations spent on training data.
  size_t num_training_records = 3000;
  size_t embedding_dim = 64;
  size_t hidden_dim = 128;
  float margin = 0.3f;
  size_t epochs = 25;
  size_t batch_size = 64;
  float learning_rate = 1e-3f;
  /// FPF mining over pretrained embeddings (paper default) vs uniform
  /// random mining (the Figure 9/10 ablation).
  bool use_fpf_mining = true;
  /// Negative candidates drawn per triplet; the semi-hard one (closest
  /// negative still further than the positive, else the hardest) is kept.
  /// 1 disables mining and uses plain uniform negatives.
  size_t negative_candidates = 4;
  uint64_t seed = 17;
};

/// Result of a training run.
struct TripletTrainResult {
  std::unique_ptr<Embedder> embedder;
  /// Indices annotated for training (N1 labeler invocations).
  std::vector<size_t> training_indices;
  /// Mean triplet loss per epoch (diagnostics; should decrease).
  std::vector<double> epoch_losses;
  double final_loss = 0.0;
};

/// Runs the full pipeline. `features` are the dataset's sensor features,
/// `pretrained` drives FPF mining, `labeler` is charged num_training_records
/// invocations, `closeness` buckets the annotations.
TripletTrainResult TrainTripletEmbedder(const nn::Matrix& features,
                                        const Embedder& pretrained,
                                        labeler::TargetLabeler* labeler,
                                        const data::ClosenessSpec& closeness,
                                        const TripletTrainOptions& options);

}  // namespace tasti::embed

#endif  // TASTI_EMBED_TRIPLET_TRAINER_H_
