#ifndef TASTI_CORE_INDEX_OPTIONS_H_
#define TASTI_CORE_INDEX_OPTIONS_H_

/// \file index_options.h
/// Construction parameters for a TASTI index (Algorithm 1), including the
/// ablation switches exercised by the factor analysis / lesion study
/// (paper Figures 9 and 10).

#include <cstddef>
#include <cstdint>

namespace tasti::core {

/// How cluster representatives are chosen (paper Section 3.2 uses FPF with
/// a small random mixture; random selection is the ablation baseline).
enum class RepSelectionPolicy {
  kFpfMixed,  ///< FPF plus `random_rep_fraction` uniform picks (default)
  kRandom,    ///< uniform random (the Figures 9/10 ablation)
};

/// All knobs of Make TASTI index(X, N1, N2, k).
struct IndexOptions {
  /// N1: target labeler annotations spent on triplet-training data.
  /// Ignored when use_triplet_training is false.
  size_t num_training_records = 3000;

  /// N2: number of cluster representatives ("buckets" in Section 6.8).
  size_t num_representatives = 7000;

  /// min-k: distances retained per record; k=5 is the paper's default
  /// propagation width (Section 5.3).
  size_t k = 5;

  /// Embedding network shape.
  size_t embedding_dim = 64;
  size_t hidden_dim = 128;

  /// Triplet training schedule.
  size_t epochs = 25;
  size_t batch_size = 64;
  float margin = 0.3f;
  float learning_rate = 1e-3f;

  /// Fraction of representatives chosen uniformly at random and mixed into
  /// the FPF picks (Section 3.2: helps average-case queries).
  double random_rep_fraction = 0.1;

  // --- Ablation switches (Figures 9/10) ---

  /// Train an embedding with the triplet loss (TASTI-T). When false, the
  /// pretrained embedding is used directly (TASTI-PT).
  bool use_triplet_training = true;

  /// Mine triplet-training records with FPF over pretrained embeddings.
  /// When false, training records are sampled uniformly.
  bool use_fpf_mining = true;

  /// Representative selection policy (see RepSelectionPolicy).
  RepSelectionPolicy rep_selection = RepSelectionPolicy::kFpfMixed;

  uint64_t seed = 42;
};

}  // namespace tasti::core

#endif  // TASTI_CORE_INDEX_OPTIONS_H_
