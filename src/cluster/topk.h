#ifndef TASTI_CLUSTER_TOPK_H_
#define TASTI_CLUSTER_TOPK_H_

/// \file topk.h
/// Exact k-nearest-representative computation (the "min-k distances" of
/// Algorithm 1) with incremental updates for index cracking.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/int8_codes.h"
#include "nn/matrix.h"

namespace tasti::cluster {

/// For every record, its k nearest representatives (ascending by
/// distance). Stored flattened: record r's j-th neighbor sits at
/// index r * k + j.
struct TopKDistances {
  size_t k = 0;
  size_t num_records = 0;
  std::vector<uint32_t> rep_ids;  ///< indices into the representative list
  std::vector<float> distances;   ///< Euclidean distances, ascending per record

  uint32_t RepId(size_t record, size_t j) const { return rep_ids[record * k + j]; }
  float Dist(size_t record, size_t j) const { return distances[record * k + j]; }
};

/// Computes exact top-k via brute force over all representative rows.
/// O(n * r * dim), parallelized over records. Tiles of records stream
/// against packed blocks of reps (nn::SquaredDistanceTile); once a record's
/// list is full, a survivor mask against its k-th distance at the block's
/// start picks the lanes that go through the scalar insert.
TopKDistances ComputeTopK(const nn::Matrix& points, const nn::Matrix& reps,
                          size_t k);

/// Incremental cracking update: representatives at rows [first_row,
/// first_row + count) of `reps` have been appended (a rep's id is its
/// row). `codes` holds the int8 codes of every row of `points`
/// (nn::Int8Codes); the new rows are encoded under the same quantizer, so a
/// new rep that is a record gets that record's codes. Every record's top-k
/// list is updated in place in one record-major pass: tiles of records
/// stream against packed blocks of the new reps' codes through the exact
/// integer kernel nn::CodeBoundTile, which returns each record's survivor
/// mask against its threshold at the block's start: a lane is dropped
/// only when the integer lower bound proves that nn::Distance is at least
/// that threshold. Each surviving pair is decided with its exact distance
/// (nn::PairDistances, bit-identical to nn::Distance) against the current
/// threshold, in ascending rep order. A skipped pair could not have been
/// inserted, so the result is bit-identical to inserting the new reps one
/// at a time with exact distances.
///
/// When `dirty_rows` is non-null, the ids of records whose top-k list
/// actually changed are appended to it (unsorted, duplicate-free for a
/// single call). This is the ground truth the incremental propagation
/// engine keys on: a record's proxy score depends only on its own top-k
/// row, so exactly these rows need recomputing after the crack.
///
/// When `exact_checks` is non-null, the number of (record, new rep) pairs
/// that survived the mask and were decided with nn::Distance is added to
/// it; the call visits points.rows() * count pairs in all, so the ratio is
/// the integer bound's survivor share.
void UpdateTopKWithNewReps(const nn::Matrix& points, const nn::Int8Codes& codes,
                           const nn::Matrix& reps, size_t first_row,
                           size_t count, TopKDistances* topk,
                           std::vector<uint32_t>* dirty_rows,
                           size_t* exact_checks = nullptr);

}  // namespace tasti::cluster

#endif  // TASTI_CLUSTER_TOPK_H_
