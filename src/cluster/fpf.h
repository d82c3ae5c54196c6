#ifndef TASTI_CLUSTER_FPF_H_
#define TASTI_CLUSTER_FPF_H_

/// \file fpf.h
/// Furthest-point-first (Gonzalez 1985) k-center selection.
///
/// FPF iteratively picks the point furthest from all previously chosen
/// centers. It is a 2-approximation to the optimal maximum intra-cluster
/// distance — the property the paper's analysis relies on — and is used
/// both for triplet-training data mining and for cluster-representative
/// selection (paper Sections 3.1-3.2).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/matrix.h"
#include "util/random.h"

namespace tasti::cluster {

/// Output of an FPF run.
struct FpfResult {
  /// Chosen center indices, in selection order (the first center is the
  /// start point; subsequent centers are furthest-first).
  std::vector<size_t> centers;
  /// For every input point, the Euclidean distance to its nearest center.
  std::vector<float> min_distance;
  /// For every input point, the index (into `centers`) of its nearest
  /// center — the cluster assignment.
  std::vector<uint32_t> assignment;
};

/// Runs FPF on the rows of `points`, selecting `k` centers starting from
/// `start_index`. O(n * k * dim). Each center's relax pass splits over
/// points, and all k passes run in one ParallelRounds region; the result
/// is bit-identical for any number of participating threads.
FpfResult FurthestPointFirst(const nn::Matrix& points, size_t k,
                             size_t start_index = 0);

/// Selects `k` representatives as a mixture: (1 - random_fraction) via FPF
/// plus random_fraction sampled uniformly (deduplicated), as the paper
/// prescribes for cluster representatives ("we mix a small fraction of
/// random clusters", Section 3.2). Returns center indices.
std::vector<size_t> MixedFpfRandomSelection(const nn::Matrix& points, size_t k,
                                            double random_fraction, Rng* rng);

/// Selects `k` indices uniformly at random (the ablation baseline for FPF).
std::vector<size_t> RandomSelection(size_t num_points, size_t k, Rng* rng);

}  // namespace tasti::cluster

#endif  // TASTI_CLUSTER_FPF_H_
