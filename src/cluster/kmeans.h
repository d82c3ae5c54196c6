#ifndef TASTI_CLUSTER_KMEANS_H_
#define TASTI_CLUSTER_KMEANS_H_

/// \file kmeans.h
/// Lloyd's k-means with k-means++ seeding.
///
/// The coarse quantizer of the IVF approximate-nearest-neighbor index
/// (ivf.h).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/matrix.h"
#include "util/random.h"

namespace tasti::cluster {

/// K-means configuration.
struct KMeansOptions {
  size_t num_clusters = 16;
  size_t max_iterations = 25;
  /// Relative improvement in mean squared distance below which Lloyd
  /// iterations stop early.
  double tolerance = 1e-4;
  uint64_t seed = 19;
};

/// K-means output.
struct KMeansResult {
  /// Cluster centroids (num_clusters x dim). Centroids are synthetic
  /// points, not dataset members.
  nn::Matrix centroids;
  /// Per-point cluster assignment.
  std::vector<uint32_t> assignment;
  /// Mean squared distance to the assigned centroid (the k-means
  /// objective) after the final iteration.
  double inertia = 0.0;
  /// Lloyd iterations actually executed.
  size_t iterations = 0;
};

/// Runs k-means++ seeding followed by Lloyd iterations. Deterministic in
/// options.seed; parallelized over points.
KMeansResult KMeans(const nn::Matrix& points, const KMeansOptions& options);

}  // namespace tasti::cluster

#endif  // TASTI_CLUSTER_KMEANS_H_
