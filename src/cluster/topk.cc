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

static_assert(nn::kDistanceBlockRows <= 64,
              "a block's survivor mask is one 64-bit word");

constexpr size_t kTile = nn::kRecordTileRows;

/// Records per crack group: the crack decides a group's survivors of one
/// block together, so their exact distances fill the chains of
/// nn::PairDistances.
constexpr size_t kCrackGroup = 4 * kTile;

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
                              ? nn::AllLanes(nb)
                              : nn::SurvivorMask(d2, nb, best_d2[k - 1]);
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

void UpdateTopKWithNewReps(const nn::Matrix& points, const nn::Int8Codes& codes,
                           const nn::Matrix& reps, size_t first_row,
                           size_t count, TopKDistances* topk,
                           std::vector<uint32_t>* dirty_rows,
                           size_t* exact_checks) {
  TASTI_CHECK(topk != nullptr, "UpdateTopKWithNewReps requires a topk");
  TASTI_CHECK(points.rows() == topk->num_records, "topk record count mismatch");
  TASTI_CHECK(points.cols() == reps.cols(), "points/reps dim mismatch");
  TASTI_CHECK(codes.rows() == points.rows() && codes.dim() == points.cols(),
              "codes do not cover the points");
  TASTI_CHECK(first_row <= reps.rows() && count <= reps.rows() - first_row,
              "new rep rows out of range");
  if (count == 0) return;
  const size_t k = topk->k;
  const std::vector<nn::PackedCodeBlock> blocks = nn::PackCodeBlocks(
      codes.Encode(reps, first_row, first_row + count), first_row);
  const float bound_factor = codes.bound_factor();
  const float margin = codes.distance_margin();

  std::mutex dirty_mu;
  ParallelForDynamic(0, points.rows(), [&](size_t lo, size_t hi) {
    std::vector<uint32_t> pair_records(kCrackGroup * nn::kDistanceBlockRows);
    std::vector<uint32_t> pair_reps(kCrackGroup * nn::kDistanceBlockRows);
    std::vector<float> pair_dist(kCrackGroup * nn::kDistanceBlockRows);
    std::vector<uint32_t> chunk_dirty;
    size_t chunk_exact_checks = 0;
    for (size_t g0 = lo; g0 < hi; g0 += kCrackGroup) {
      const size_t group = std::min(kCrackGroup, hi - g0);
      bool changed[kCrackGroup] = {};
      for (const nn::PackedCodeBlock& block : blocks) {
        // Each record's mask tests every lane against its threshold at the
        // block's start (an unfilled list's FLT_MAX keeps every lane).
        // Thresholds only tighten, so a skipped lane's distance is also at
        // least the threshold the insert below sees, which is the one a
        // one-rep-at-a-time sweep would compare against.
        float bases[kCrackGroup];
        uint64_t masks[kCrackGroup];
        for (size_t t = 0; t < group; ++t) {
          const size_t i = g0 + t;
          bases[t] = nn::CodeBoundBase(topk->distances[i * k + k - 1],
                                       codes.error(i), margin);
        }
        for (size_t t0 = 0; t0 < group; t0 += kTile) {
          nn::CodeBoundTile(codes, g0 + t0, std::min(kTile, group - t0),
                            bases + t0, bound_factor, block, masks + t0);
        }
        size_t pairs = 0;
        for (size_t t = 0; t < group; ++t) {
          for (uint64_t mask = masks[t]; mask != 0; mask &= mask - 1) {
            pair_records[pairs] = static_cast<uint32_t>(g0 + t);
            const size_t j = static_cast<size_t>(std::countr_zero(mask));
            pair_reps[pairs] = static_cast<uint32_t>(block.row_begin() + j);
            ++pairs;
          }
        }
        chunk_exact_checks += pairs;
        // Survivors of the group's records, by record and then ascending
        // rep: their exact distances do not depend on the inserts, so they
        // run first, as independent chains, and the inserts follow in
        // order.
        nn::PairDistances(points, pair_records.data(), reps, pair_reps.data(),
                          pairs, pair_dist.data());
        for (size_t pr = 0; pr < pairs; ++pr) {
          const size_t i = pair_records[pr];
          float* dist = topk->distances.data() + i * k;
          uint32_t* ids = topk->rep_ids.data() + i * k;
          const float d = pair_dist[pr];
          if (d >= dist[k - 1]) continue;
          size_t pos = k - 1;
          while (pos > 0 && dist[pos - 1] > d) {
            dist[pos] = dist[pos - 1];
            ids[pos] = ids[pos - 1];
            --pos;
          }
          dist[pos] = d;
          ids[pos] = pair_reps[pr];
          changed[i - g0] = true;
        }
      }
      for (size_t t = 0; t < group; ++t) {
        if (changed[t] && dirty_rows != nullptr) {
          chunk_dirty.push_back(static_cast<uint32_t>(g0 + t));
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
