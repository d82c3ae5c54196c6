#ifndef TASTI_NN_KERNELS_H_
#define TASTI_NN_KERNELS_H_

/// \file kernels.h
/// Batched, cache-blocked distance kernels.
///
/// Index construction is dominated by all-records x all-representatives
/// distance computations (top-k, FPF, cracking updates). The scalar one-pair-at-a-time loops in matrix.cc are
/// latency-bound: a float reduction is a dependent add chain the compiler
/// may not reassociate. The kernels here restructure the work so the hot
/// inner loops carry no loop-carried dependence and auto-vectorize:
///
///  * Many-representative batches use the dot-trick
///    `d2(x, y) = |x|^2 + |y|^2 - 2 x.y` over a register-blocked GEMM with
///    cached per-row norms, clamped at zero (the subtraction can go
///    slightly negative for near-duplicate rows). Top-k streams tiles of
///    records through it and keeps only the lanes of a vector survivor
///    mask. (Cracking filters through integer codes instead,
///    nn/int8_codes.h, and decides its survivors with PairDistances.)
///  * One-center batches (triplet mining's candidate scans) keep the cancellation-free `(x - y)^2` form but split the
///    depth reduction across independent accumulator lanes.
///
/// All kernels accumulate each output element sequentially over the depth
/// dimension, so results are deterministic and independent of threading
/// and of which ISA clone the loader picked (nn/clones.h).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/matrix.h"

namespace tasti::nn {

/// Default number of representative rows per packed tile. 64 rows x 64
/// dims x 4 bytes = 16 KiB: the tile stays L1-resident while a chunk of
/// records streams against it.
inline constexpr size_t kDistanceBlockRows = 64;

/// Squared L2 norm of one row of `m`, accumulated sequentially (the same
/// order the blocked GEMM uses along depth, so `d2(x, x)` cancels to zero
/// exactly for bitwise-identical rows).
float RowSquaredNorm(const Matrix& m, size_t row);

/// Column padding of a packed block: the widest record-tile column group
/// (two 8-float vectors).
inline constexpr size_t kPackedColumnMultiple = 16;

/// A tile of representative rows packed depth-major (dim x rows) so the
/// batched kernels stream it with unit stride, plus cached squared norms.
class PackedBlock {
 public:
  PackedBlock() = default;

  /// Packs rows [row_begin, row_end) of `reps`.
  void Pack(const Matrix& reps, size_t row_begin, size_t row_end);

  size_t rows() const { return rows_; }
  size_t row_begin() const { return row_begin_; }
  size_t dim() const { return dim_; }
  bool empty() const { return rows_ == 0; }
  /// rows() rounded up to a multiple of kPackedColumnMultiple: the distance
  /// from one depth's packed row to the next.
  size_t stride() const { return stride_; }
  /// Depth-major data: element (p, j) = reps(row_begin + j, p) sits at
  /// p * stride() + j. Columns [rows(), stride()) are zero, so a kernel can
  /// run whole vectors over a partial block and store only the real lanes.
  const float* packed() const { return packed_.data(); }
  /// Squared norms, stride() entries; the padding entries are zero.
  const float* norms() const { return norms_.data(); }

 private:
  size_t row_begin_ = 0;
  size_t rows_ = 0;
  size_t stride_ = 0;
  size_t dim_ = 0;
  AlignedFloats packed_;
  AlignedFloats norms_;
};

/// Splits the rows of `reps` into consecutive packed tiles of at most
/// `block_rows` rows each.
std::vector<PackedBlock> PackBlocks(const Matrix& reps,
                                    size_t block_rows = kDistanceBlockRows);

/// Range variant: tiles rows [row_begin, row_end) only; each tile's
/// row_begin() stays an absolute row index of `reps`.
std::vector<PackedBlock> PackBlocks(const Matrix& reps, size_t row_begin,
                                    size_t row_end,
                                    size_t block_rows = kDistanceBlockRows);

/// The clone of the dispatched kernels (DotBatch, the training GEMMs) that
/// this process runs: "avx2" or "default". Both give bit-identical results;
/// this only names which one a test or bench row exercised.
const char* KernelIsa();

/// Dot products of row `point_row` of `points` against every row of the
/// block: out[j] = points[point_row] . block_row_j. The j loop is unit
/// stride over the packed tile and carries no dependence, so it
/// vectorizes; the depth accumulation stays sequential per output.
void DotBatch(const Matrix& points, size_t point_row, const PackedBlock& block,
              float* out);

/// Batched squared distances via the dot-trick with a clamp at zero:
/// out[j] = max(0, point_norm + block_norm_j - 2 * dot_j) for every row j
/// of the block. `point_norm` must be RowSquaredNorm(points, point_row).
void SquaredDistanceBatch(const Matrix& points, size_t point_row,
                          float point_norm, const PackedBlock& block,
                          float* out);

/// Convenience overload that computes the point norm itself.
void SquaredDistanceBatch(const Matrix& points, size_t point_row,
                          const PackedBlock& block, float* out);

/// Records per tile of SquaredDistanceTile.
inline constexpr size_t kRecordTileRows = 4;

/// The record-tile form of SquaredDistanceBatch, for callers that stream
/// many records against the same blocks (top-k, cracking): for t < rows
/// (rows <= kRecordTileRows) and every row j of the block,
/// out[t * block.rows() + j] = max(0, point_norms[t] + block_norm_j -
/// 2 * dot(points[row_begin + t], block_row_j)). `point_norms[t]` must be
/// RowSquaredNorm(points, row_begin + t). The tile loads each packed
/// element once for all its records and keeps their dot products in
/// registers; every dot still accumulates in ascending depth, so each value
/// is bit-identical to SquaredDistanceBatch's.
void SquaredDistanceTile(const Matrix& points, size_t row_begin, size_t rows,
                         const float* point_norms, const PackedBlock& block,
                         float* out);

/// One record's survivor bitmask over n <= 64 block distances: bit j is
/// set unless d2[j] > bound (a NaN distance survives). ComputeTopK passes
/// the record's k-th squared distance at the start of a block; it only
/// shrinks within the block, so the mask is a superset of the lanes the
/// scalar insert takes, and only its set lanes reach that insert.
uint64_t SurvivorMask(const float* d2, size_t n, float bound);

/// The mask with every lane of a block of `rows` rows set (rows <= 64).
inline uint64_t AllLanes(size_t rows) {
  return rows == 64 ? ~uint64_t{0} : (uint64_t{1} << rows) - 1;
}

/// Exact distances of n row pairs: out[l] = nn::Distance(a, a_rows[l], b,
/// b_rows[l]), bit for bit. Eight pairs at a time run side by side (one
/// vector lane each in the AVX2 version), each summing its rounded squared
/// differences in ascending column order as nn::Distance does.
void PairDistances(const Matrix& a, const uint32_t* a_rows, const Matrix& b,
                   const uint32_t* b_rows, size_t n, float* out);

/// Cancellation-free one-to-many: out[i - lo] = |m_i - y|^2 for rows
/// [lo, hi) of `m`; `y` holds m.cols() floats. Used where a single vector
/// is compared against many rows (triplet mining's candidate scans) and
/// the dot-trick has no reuse to exploit.
void SquaredDistanceOneToMany(const Matrix& m, size_t lo, size_t hi,
                              const float* y, float* out);

/// Overload: y = centers row `c`.
void SquaredDistanceOneToMany(const Matrix& m, size_t lo, size_t hi,
                              const Matrix& centers, size_t c, float* out);

/// Register-blocked C = A * B^T (same contract as GemmBT): B is packed
/// into depth-major tiles once and every row of A streams against each
/// tile while it is cache-hot.
void GemmBTBlocked(const Matrix& a, const Matrix& b, Matrix* c);

}  // namespace tasti::nn

#endif  // TASTI_NN_KERNELS_H_
