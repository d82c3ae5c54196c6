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
///    slightly negative for near-duplicate rows). Cracking updates use it
///    as a prefilter only and re-decide survivors exactly.
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

/// Per-row squared L2 norms, accumulated sequentially per row (the same
/// order the blocked GEMM uses along depth, so `d2(x, x)` cancels to zero
/// exactly for bitwise-identical rows).
std::vector<float> RowSquaredNorms(const Matrix& m);

/// Squared L2 norm of one row of `m`.
float RowSquaredNorm(const Matrix& m, size_t row);

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
  /// Depth-major data: element (p, j) = reps(row_begin + j, p) sits at
  /// p * rows() + j.
  const float* packed() const { return packed_.data(); }
  const float* norms() const { return norms_.data(); }

 private:
  size_t row_begin_ = 0;
  size_t rows_ = 0;
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
