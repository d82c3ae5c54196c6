#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "nn/kernels.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace tasti::cluster {

namespace {

// k-means++ seeding: each new centroid is drawn proportionally to the
// squared distance from the nearest already-chosen centroid.
std::vector<size_t> KMeansPlusPlusSeeds(const nn::Matrix& points, size_t k,
                                        Rng* rng) {
  const size_t n = points.rows();
  std::vector<size_t> seeds;
  seeds.reserve(k);
  seeds.push_back(static_cast<size_t>(rng->UniformInt(n)));
  std::vector<double> min_d2(n, std::numeric_limits<double>::max());
  std::vector<float> d2_buf(n);
  for (size_t round = 1; round < k; ++round) {
    const size_t latest = seeds.back();
    nn::SquaredDistanceOneToMany(points, 0, n, points, latest, d2_buf.data());
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      min_d2[i] = std::min(min_d2[i], static_cast<double>(d2_buf[i]));
      total += min_d2[i];
    }
    if (total <= 0.0) break;  // fewer distinct points than clusters
    double target = rng->Uniform() * total;
    size_t chosen = n - 1;
    for (size_t i = 0; i < n; ++i) {
      if (target < min_d2[i]) {
        chosen = i;
        break;
      }
      target -= min_d2[i];
    }
    seeds.push_back(chosen);
  }
  return seeds;
}

}  // namespace

KMeansResult KMeans(const nn::Matrix& points, const KMeansOptions& options) {
  const size_t n = points.rows();
  const size_t dim = points.cols();
  TASTI_CHECK(n > 0, "KMeans requires points");
  TASTI_CHECK(options.num_clusters > 0, "num_clusters must be positive");
  const size_t k = std::min(options.num_clusters, n);

  Rng rng(options.seed);
  const std::vector<size_t> seeds = KMeansPlusPlusSeeds(points, k, &rng);

  KMeansResult result;
  result.centroids = nn::Matrix(k, dim);
  for (size_t c = 0; c < seeds.size(); ++c) {
    result.centroids.SetRow(c, points, seeds[c]);
  }
  result.assignment.assign(n, 0);

  // Point norms are loop-invariant across iterations; centroid tiles are
  // re-packed every iteration (centroids move).
  const std::vector<float> point_norms = nn::RowSquaredNorms(points);

  double previous_inertia = std::numeric_limits<double>::max();
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    ++result.iterations;
    // Assignment step (parallel over points, batched over centroids).
    // Inertia partials are stored per deterministic chunk — not per
    // worker — so the final sum order does not depend on scheduling.
    const size_t chunk = 512;
    const size_t num_chunks = (n + chunk - 1) / chunk;
    std::vector<double> inertia_chunks(num_chunks, 0.0);
    const std::vector<nn::PackedBlock> blocks =
        nn::PackBlocks(result.centroids);
    ParallelForDynamic(0, n, [&](size_t lo, size_t hi, size_t /*worker*/) {
      std::vector<float> d2(nn::kDistanceBlockRows);
      for (size_t chunk_lo = lo; chunk_lo < hi; chunk_lo += chunk) {
        const size_t chunk_hi = std::min(hi, chunk_lo + chunk);
        double local = 0.0;
        for (size_t i = chunk_lo; i < chunk_hi; ++i) {
          float best = std::numeric_limits<float>::max();
          uint32_t arg = 0;
          for (const nn::PackedBlock& block : blocks) {
            nn::SquaredDistanceBatch(points, i, point_norms[i], block,
                                     d2.data());
            const size_t base = block.row_begin();
            for (size_t c = 0; c < block.rows(); ++c) {
              if (d2[c] < best) {
                best = d2[c];
                arg = static_cast<uint32_t>(base + c);
              }
            }
          }
          result.assignment[i] = arg;
          local += best;
        }
        inertia_chunks[chunk_lo / chunk] += local;
      }
    }, chunk);
    double inertia = 0.0;
    for (double part : inertia_chunks) inertia += part;
    result.inertia = inertia / static_cast<double>(n);

    // Update step.
    nn::Matrix sums(k, dim);
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t c = result.assignment[i];
      float* row = sums.Row(c);
      const float* p = points.Row(i);
      for (size_t d = 0; d < dim; ++d) row[d] += p[d];
      ++counts[c];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at a random point.
        result.centroids.SetRow(c, points,
                                static_cast<size_t>(rng.UniformInt(n)));
        continue;
      }
      float* row = result.centroids.Row(c);
      const float inv = 1.0f / static_cast<float>(counts[c]);
      for (size_t d = 0; d < dim; ++d) row[d] = sums.At(c, d) * inv;
    }

    if (previous_inertia < std::numeric_limits<double>::max() &&
        previous_inertia - result.inertia <=
            options.tolerance * std::max(previous_inertia, 1e-12)) {
      break;
    }
    previous_inertia = result.inertia;
  }
  return result;
}

}  // namespace tasti::cluster
