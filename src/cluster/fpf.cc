#include "cluster/fpf.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "nn/kernels.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace tasti::cluster {

namespace {

/// Packed blocks per relax chunk. A 10k-point relax splits into 40 chunks,
/// so every participant stays busy and a round's tail is one short chunk,
/// while the two shared-cursor updates per chunk stay negligible.
constexpr size_t kRelaxChunkBlocks = 4;

/// Furthest point of one chunk; ties go to the smaller index.
struct ChunkArgmax {
  float best;
  size_t arg;
};

}  // namespace

FpfResult FurthestPointFirst(const nn::Matrix& points, size_t k,
                             size_t start_index) {
  const size_t n = points.rows();
  TASTI_CHECK(n > 0, "FPF requires at least one point");
  TASTI_CHECK(start_index < n, "FPF start index out of range");
  k = std::min(k, n);

  FpfResult result;
  result.centers.reserve(k);
  result.min_distance.assign(n, std::numeric_limits<float>::max());
  result.assignment.assign(n, 0);
  if (k == 0) return result;

  // Pack the points once (depth-major blocks with cached norms); the cost
  // is one O(n * d) copy amortized over all k relax passes, and it turns
  // each pass into the same 16-wide register-tiled kernel ComputeTopK
  // uses — no per-point horizontal reduction. A center's distance to
  // itself stays exactly zero: the DotBatch lane accumulates x[p] * x[p]
  // in the same sequential order RowSquaredNorm used for the cached norm,
  // so the dot-trick combine cancels bitwise (and the kernel clamps any
  // residual negative to zero).
  const std::vector<nn::PackedBlock> blocks = nn::PackBlocks(points);
  const size_t num_chunks =
      (blocks.size() + kRelaxChunkBlocks - 1) / kRelaxChunkBlocks;
  std::vector<ChunkArgmax> chunk_best(num_chunks);

  // The relax loop tracks *squared* distances: sqrt is monotone, so the
  // min updates and the furthest-point argmax are unchanged, and the
  // per-point sqrt (which costs as much as several dims of arithmetic)
  // moves out of the O(n * k) loop into one final pass.
  std::vector<float> min_d2(n, std::numeric_limits<float>::max());

  // The current center. Written only by next_center, which runs between
  // rounds, so every relax of a round reads the same values.
  size_t current = start_index;
  uint32_t center_id = 0;
  float center_norm = nn::RowSquaredNorm(points, current);
  result.centers.push_back(current);

  // Relaxes one chunk of points against the current center and records
  // the chunk's furthest point. Chunks own disjoint rows, so any
  // participant may run any chunk.
  const auto relax = [&](size_t chunk) {
    std::array<float, nn::kDistanceBlockRows> d2_buf;
    float best = -1.0f;
    size_t arg = n;
    const size_t b_end =
        std::min(blocks.size(), (chunk + 1) * kRelaxChunkBlocks);
    for (size_t b = chunk * kRelaxChunkBlocks; b < b_end; ++b) {
      const nn::PackedBlock& block = blocks[b];
      nn::SquaredDistanceBatch(points, current, center_norm, block,
                               d2_buf.data());
      const size_t base = block.row_begin();
      for (size_t j = 0; j < block.rows(); ++j) {
        const size_t i = base + j;
        const float d2 = d2_buf[j];
        if (d2 < min_d2[i]) {
          min_d2[i] = d2;
          result.assignment[i] = center_id;
        }
        if (min_d2[i] > best) {
          best = min_d2[i];
          arg = i;
        }
      }
    }
    chunk_best[chunk] = {best, arg};
  };
  // Reduces the chunks in index order (so ties keep the smallest index, as
  // a serial scan does, whoever ran which chunk) and picks the next center.
  const auto next_center = [&]() {
    float best = -1.0f;
    size_t arg = n;
    for (const ChunkArgmax& c : chunk_best) {
      if (c.best > best) {
        best = c.best;
        arg = c.arg;
      }
    }
    ++center_id;
    // Stop at k centers, or early once every point coincides with one.
    if (center_id == k || best <= 0.0f) return false;
    current = arg;
    center_norm = nn::RowSquaredNorm(points, current);
    result.centers.push_back(current);
    return true;
  };
  ParallelRounds(num_chunks, relax, next_center);

  for (size_t i = 0; i < n; ++i) result.min_distance[i] = std::sqrt(min_d2[i]);
  return result;
}

std::vector<size_t> MixedFpfRandomSelection(const nn::Matrix& points, size_t k,
                                            double random_fraction, Rng* rng) {
  TASTI_CHECK(rng != nullptr, "MixedFpfRandomSelection requires an RNG");
  TASTI_CHECK(random_fraction >= 0.0 && random_fraction <= 1.0,
              "random_fraction must be in [0, 1]");
  const size_t n = points.rows();
  k = std::min(k, n);
  const size_t num_random = static_cast<size_t>(std::floor(k * random_fraction));
  const size_t num_fpf = k - num_random;

  std::vector<size_t> selected;
  std::unordered_set<size_t> seen;
  if (num_fpf > 0) {
    FpfResult fpf = FurthestPointFirst(points, num_fpf,
                                       static_cast<size_t>(rng->UniformInt(n)));
    for (size_t c : fpf.centers) {
      selected.push_back(c);
      seen.insert(c);
    }
  }
  // Fill the random portion without duplicating FPF picks.
  while (selected.size() < k && seen.size() < n) {
    const size_t idx = static_cast<size_t>(rng->UniformInt(n));
    if (seen.insert(idx).second) selected.push_back(idx);
  }
  return selected;
}

std::vector<size_t> RandomSelection(size_t num_points, size_t k, Rng* rng) {
  TASTI_CHECK(rng != nullptr, "RandomSelection requires an RNG");
  return rng->SampleWithoutReplacement(num_points, std::min(k, num_points));
}

}  // namespace tasti::cluster
