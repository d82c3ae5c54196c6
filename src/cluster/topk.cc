#include "cluster/topk.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>

#include "nn/kernels.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace tasti::cluster {

namespace {

/// Inserts (d2, id) into the sorted prefix best_d2[0..filled). Equal keys
/// keep insertion order, so scanning representatives in ascending id gives
/// the same tie-breaks as the scalar reference.
void InsertSorted(float d2, uint32_t id, size_t filled, float* best_d2,
                  uint32_t* best_id) {
  size_t pos = filled;
  while (pos > 0 && best_d2[pos - 1] > d2) {
    best_d2[pos] = best_d2[pos - 1];
    best_id[pos] = best_id[pos - 1];
    --pos;
  }
  best_d2[pos] = d2;
  best_id[pos] = id;
}

/// Every lane of a block of `rows` columns (rows <= 64).
uint64_t AllLanes(size_t rows) {
  return rows == 64 ? ~uint64_t{0} : (uint64_t{1} << rows) - 1;
}

/// The threshold part of the crack prefilter's bound (see
/// UpdateTopKWithNewReps); the mask and the scalar test share it, so a lane
/// the mask keeps meets the same float expression again.
float CrackBoundBase(float thr) { return thr * thr * (1.0f + 1e-3f) + 1e-6f; }

static_assert(nn::kDistanceBlockRows <= 64,
              "a block's survivor mask is one 64-bit word");

constexpr size_t kTile = nn::kRecordTileRows;

/// nn::RowSquaredNorm of each record in [i0, i0 + rows), rows <= kTile. A
/// whole tile runs its rows as independent add chains; each still sums in
/// ascending depth, so every value is RowSquaredNorm's.
void TileSquaredNorms(const nn::Matrix& points, size_t i0, size_t rows,
                      float* norms) {
  if (rows != kTile) {
    for (size_t t = 0; t < rows; ++t) {
      norms[t] = nn::RowSquaredNorm(points, i0 + t);
    }
    return;
  }
  float acc[kTile] = {};
  for (size_t p = 0; p < points.cols(); ++p) {
    for (size_t t = 0; t < kTile; ++t) {
      const float v = points.At(i0 + t, p);
      acc[t] += v * v;
    }
  }
  for (size_t t = 0; t < kTile; ++t) norms[t] = acc[t];
}

}  // namespace

TopKDistances ComputeTopK(const nn::Matrix& points, const nn::Matrix& reps,
                          size_t k) {
  TASTI_CHECK(points.cols() == reps.cols(), "points/reps dim mismatch");
  TASTI_CHECK(reps.rows() > 0, "ComputeTopK requires at least one rep");
  const size_t n = points.rows();
  const size_t r = reps.rows();
  k = std::min(k, r);

  TopKDistances topk;
  topk.k = k;
  topk.num_records = n;
  topk.rep_ids.assign(n * k, 0);
  topk.distances.assign(n * k, std::numeric_limits<float>::max());

  // Representatives packed once into depth-major L1-sized tiles; every
  // tile of records streams against each block via the dot-trick tile
  // kernel.
  const std::vector<nn::PackedBlock> blocks = nn::PackBlocks(reps);

  ParallelForDynamic(0, n, [&](size_t lo, size_t hi) {
    std::vector<float> dist2(kTile * nn::kDistanceBlockRows);
    std::vector<float> best_d2_tile(kTile * k);
    std::vector<uint32_t> best_id_tile(kTile * k);
    for (size_t i0 = lo; i0 < hi; i0 += kTile) {
      const size_t rows = std::min(kTile, hi - i0);
      float point_norms[kTile];
      size_t filled[kTile] = {};
      TileSquaredNorms(points, i0, rows, point_norms);
      for (const nn::PackedBlock& block : blocks) {
        const size_t nb = block.rows();
        nn::SquaredDistanceTile(points, i0, rows, point_norms, block,
                                dist2.data());
        const size_t base = block.row_begin();
        for (size_t t = 0; t < rows; ++t) {
          const float* d2 = dist2.data() + t * nb;
          float* best_d2 = best_d2_tile.data() + t * k;
          uint32_t* best_id = best_id_tile.data() + t * k;
          // Until the list is full every lane is kept; after that, only
          // lanes under the block-start k-th distance can be inserted.
          uint64_t mask = filled[t] < k
                              ? AllLanes(nb)
                              : nn::SurvivorMask(d2, nb, 0.0f, block.norms(),
                                                 best_d2[k - 1], 0.0f);
          for (; mask != 0; mask &= mask - 1) {
            const size_t j = static_cast<size_t>(std::countr_zero(mask));
            if (filled[t] < k) {
              InsertSorted(d2[j], static_cast<uint32_t>(base + j), filled[t],
                           best_d2, best_id);
              ++filled[t];
            } else if (d2[j] < best_d2[k - 1]) {
              InsertSorted(d2[j], static_cast<uint32_t>(base + j), k - 1,
                           best_d2, best_id);
            }
          }
        }
      }
      for (size_t t = 0; t < rows; ++t) {
        const size_t i = i0 + t;
        float* best_d2 = best_d2_tile.data() + t * k;
        uint32_t* best_id = best_id_tile.data() + t * k;
        // Pin the stored distances to the exact scalar formula: the
        // dot-trick selects the k nearest, but its cancellation error (up to
        // ~eps * |x|^2 for near-duplicates) would leak into propagation
        // weights. Recomputing k exact distances costs k/r of the batch
        // pass.
        for (size_t j = 0; j < filled[t]; ++j) {
          best_d2[j] = nn::SquaredDistance(points, i, reps, best_id[j]);
        }
        // Exact values may swap near-equal neighbors; restore ascending
        // order (ties by id, matching the scalar reference's insertion).
        for (size_t j = 1; j < filled[t]; ++j) {
          const float d2 = best_d2[j];
          const uint32_t id = best_id[j];
          size_t pos = j;
          while (pos > 0 && (best_d2[pos - 1] > d2 ||
                             (best_d2[pos - 1] == d2 && best_id[pos - 1] > id))) {
            best_d2[pos] = best_d2[pos - 1];
            best_id[pos] = best_id[pos - 1];
            --pos;
          }
          best_d2[pos] = d2;
          best_id[pos] = id;
        }
        for (size_t j = 0; j < filled[t]; ++j) {
          topk.distances[i * k + j] = std::sqrt(best_d2[j]);
          topk.rep_ids[i * k + j] = best_id[j];
        }
      }
    }
  }, 256);
  return topk;
}

void UpdateTopKWithNewReps(const nn::Matrix& points, const nn::Matrix& reps,
                           size_t first_row, size_t count, TopKDistances* topk,
                           std::vector<uint32_t>* dirty_rows,
                           size_t* exact_checks) {
  TASTI_CHECK(topk != nullptr, "UpdateTopKWithNewReps requires a topk");
  TASTI_CHECK(points.rows() == topk->num_records, "topk record count mismatch");
  TASTI_CHECK(points.cols() == reps.cols(), "points/reps dim mismatch");
  TASTI_CHECK(first_row <= reps.rows() && count <= reps.rows() - first_row,
              "new rep rows out of range");
  if (count == 0) return;
  const size_t k = topk->k;

  // Prefilter slack for the dot-trick. With n = |x|^2 + |y|^2 and d-term
  // sequential float sums (unit roundoff u = eps/2, gamma_d ~ d*u), the
  // two norms are each off by at most gamma_d * their value and 2 x.y by
  // at most 2 * gamma_d * sum|x_p y_p| <= gamma_d * n; the final add,
  // subtract and clamp add a few u * n. The batch value is therefore within
  // (d + 2) * eps * n of the true squared distance; 16 * d * eps keeps an
  // 8x margin. Far from the origin that error dwarfs the distance itself,
  // so a purely relative slack would reject true neighbours. A candidate
  // rejected here has true d2 > thr^2 (1 + 1e-3), so the exact check would
  // reject it too: the filter never changes a decision.
  const float norm_slack = 16.0f * static_cast<float>(points.cols()) *
                           std::numeric_limits<float>::epsilon();
  const std::vector<nn::PackedBlock> blocks =
      nn::PackBlocks(reps, first_row, first_row + count);

  std::mutex dirty_mu;
  ParallelForDynamic(0, points.rows(), [&](size_t lo, size_t hi) {
    std::vector<float> d2_tile(kTile * nn::kDistanceBlockRows);
    std::vector<uint32_t> chunk_dirty;
    size_t chunk_exact_checks = 0;
    for (size_t i0 = lo; i0 < hi; i0 += kTile) {
      const size_t rows = std::min(kTile, hi - i0);
      float point_norms[kTile];
      bool changed[kTile] = {};
      TileSquaredNorms(points, i0, rows, point_norms);
      for (const nn::PackedBlock& block : blocks) {
        const size_t nb = block.rows();
        nn::SquaredDistanceTile(points, i0, rows, point_norms, block,
                                d2_tile.data());
        const float* rep_norms = block.norms();
        for (size_t t = 0; t < rows; ++t) {
          const size_t i = i0 + t;
          const float point_norm = point_norms[t];
          const float* d2 = d2_tile.data() + t * nb;
          float* dist = topk->distances.data() + i * k;
          uint32_t* ids = topk->rep_ids.data() + i * k;
          // The mask tests every lane against the threshold at the block's
          // start. Thresholds only tighten, so it keeps a superset of the
          // lanes that pass the exact test below, which sees the threshold
          // as it stands after earlier new reps were inserted, exactly as in
          // a one-rep-at-a-time sweep.
          const float thr0 = dist[k - 1];
          uint64_t mask =
              thr0 < std::numeric_limits<float>::max()
                  ? nn::SurvivorMask(d2, nb, point_norm, rep_norms,
                                     CrackBoundBase(thr0), norm_slack)
                  : AllLanes(nb);
          for (; mask != 0; mask &= mask - 1) {
            const size_t j = static_cast<size_t>(std::countr_zero(mask));
            const float thr = dist[k - 1];
            if (thr < std::numeric_limits<float>::max() &&
                d2[j] > CrackBoundBase(thr) +
                            norm_slack * (point_norm + rep_norms[j])) {
              continue;
            }
            ++chunk_exact_checks;
            const size_t rep_row = block.row_begin() + j;
            const float d = nn::Distance(points, i, reps, rep_row);
            if (d >= thr) continue;
            size_t pos = k - 1;
            while (pos > 0 && dist[pos - 1] > d) {
              dist[pos] = dist[pos - 1];
              ids[pos] = ids[pos - 1];
              --pos;
            }
            dist[pos] = d;
            ids[pos] = static_cast<uint32_t>(rep_row);
            changed[t] = true;
          }
        }
      }
      for (size_t t = 0; t < rows; ++t) {
        if (changed[t] && dirty_rows != nullptr) {
          chunk_dirty.push_back(static_cast<uint32_t>(i0 + t));
        }
      }
    }
    if (!chunk_dirty.empty() || exact_checks != nullptr) {
      std::lock_guard<std::mutex> lock(dirty_mu);
      if (dirty_rows != nullptr) {
        dirty_rows->insert(dirty_rows->end(), chunk_dirty.begin(),
                           chunk_dirty.end());
      }
      if (exact_checks != nullptr) *exact_checks += chunk_exact_checks;
    }
  }, 256);
}

}  // namespace tasti::cluster
