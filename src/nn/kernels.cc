#include "nn/kernels.h"

#include <algorithm>

#include "nn/clones.h"
#include "util/status.h"

namespace tasti::nn {

namespace {

/// Accumulator lanes for the depth reduction in the one-to-many kernel.
/// Sixteen independent partial sums break the loop-carried add chain into
/// four vector chains — enough in-flight adds to hide FP add latency —
/// and the fixed-trip inner loop vectorizes without -ffast-math.
constexpr size_t kLanes = 16;

/// Force-inlined: at d = 64 the call overhead (prologue plus zeroing and
/// spilling the 16-float accumulator array through the stack) costs about
/// as much as the distance arithmetic itself, and GCC declines to inline
/// this on its own.
#if defined(__GNUC__)
__attribute__((always_inline))
#endif
inline float SquaredDistanceFlat(const float* x, const float* y, size_t d) {
  float acc[kLanes] = {0.0f};
  size_t p = 0;
  for (; p + kLanes <= d; p += kLanes) {
    for (size_t u = 0; u < kLanes; ++u) {
      const float diff = x[p + u] - y[p + u];
      acc[u] += diff * diff;
    }
  }
  float tail = 0.0f;
  for (; p < d; ++p) {
    const float diff = x[p] - y[p];
    tail += diff * diff;
  }
  // Fixed-shape pairwise combine keeps the final sum order deterministic.
  for (size_t width = kLanes / 2; width > 0; width /= 2) {
    for (size_t u = 0; u < width; ++u) acc[u] += acc[u + width];
  }
  return acc[0] + tail;
}

}  // namespace

std::vector<float> RowSquaredNorms(const Matrix& m) {
  std::vector<float> norms(m.rows());
  for (size_t r = 0; r < m.rows(); ++r) norms[r] = RowSquaredNorm(m, r);
  return norms;
}

float RowSquaredNorm(const Matrix& m, size_t row) {
  const float* x = m.Row(row);
  float acc = 0.0f;
  for (size_t p = 0; p < m.cols(); ++p) acc += x[p] * x[p];
  return acc;
}

void PackedBlock::Pack(const Matrix& reps, size_t row_begin, size_t row_end) {
  TASTI_CHECK(row_begin <= row_end && row_end <= reps.rows(),
              "PackedBlock row range out of bounds");
  row_begin_ = row_begin;
  rows_ = row_end - row_begin;
  dim_ = reps.cols();
  packed_.assign(dim_ * rows_, 0.0f);
  norms_.assign(rows_, 0.0f);
  for (size_t j = 0; j < rows_; ++j) {
    const float* src = reps.Row(row_begin + j);
    for (size_t p = 0; p < dim_; ++p) packed_[p * rows_ + j] = src[p];
    norms_[j] = RowSquaredNorm(reps, row_begin + j);
  }
}

std::vector<PackedBlock> PackBlocks(const Matrix& reps, size_t block_rows) {
  return PackBlocks(reps, 0, reps.rows(), block_rows);
}

std::vector<PackedBlock> PackBlocks(const Matrix& reps, size_t row_begin,
                                    size_t row_end, size_t block_rows) {
  TASTI_CHECK(block_rows > 0, "PackBlocks requires a positive block size");
  TASTI_CHECK(row_begin <= row_end && row_end <= reps.rows(),
              "PackBlocks row range out of bounds");
  std::vector<PackedBlock> blocks;
  blocks.reserve((row_end - row_begin + block_rows - 1) / block_rows);
  for (size_t lo = row_begin; lo < row_end; lo += block_rows) {
    blocks.emplace_back();
    blocks.back().Pack(reps, lo, std::min(row_end, lo + block_rows));
  }
  return blocks;
}

const char* KernelIsa() {
#if defined(TASTI_KERNEL_CLONES_ENABLED)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return "avx2";
#endif
  return "default";
}

TASTI_KERNEL_CLONES
void DotBatch(const Matrix& points, size_t point_row, const PackedBlock& block,
              float* out) {
  TASTI_CHECK(points.cols() == block.dim(), "DotBatch dimension mismatch");
  const size_t nb = block.rows();
  const size_t d = block.dim();
  const float* x = points.Row(point_row);
  const float* pk = block.packed();
  // Register blocking: a fixed 16-wide column tile keeps the partial sums
  // in vector registers across the whole depth loop instead of spilling
  // `out` every step; the fully-unrolled inner loop vectorizes (four xmm
  // registers in the default clone, two ymm in the AVX2 one). Each output
  // still accumulates sequentially over p.
  constexpr size_t kJTile = 16;
  size_t j0 = 0;
  for (; j0 + kJTile <= nb; j0 += kJTile) {
    float acc[kJTile] = {0.0f};
    const float* tile = pk + j0;
    for (size_t p = 0; p < d; ++p) {
      const float xv = x[p];
      const float* row = tile + p * nb;
      for (size_t u = 0; u < kJTile; ++u) acc[u] += xv * row[u];
    }
    for (size_t u = 0; u < kJTile; ++u) out[j0 + u] = acc[u];
  }
  if (j0 < nb) {
    for (size_t j = j0; j < nb; ++j) out[j] = 0.0f;
    for (size_t p = 0; p < d; ++p) {
      const float xv = x[p];
      const float* row = pk + p * nb;
      for (size_t j = j0; j < nb; ++j) out[j] += xv * row[j];
    }
  }
}

void SquaredDistanceBatch(const Matrix& points, size_t point_row,
                          float point_norm, const PackedBlock& block,
                          float* out) {
  const size_t nb = block.rows();
  if (nb == 0) return;
  DotBatch(points, point_row, block, out);
  const float* norms = block.norms();
  for (size_t j = 0; j < nb; ++j) {
    const float d2 = point_norm + norms[j] - 2.0f * out[j];
    out[j] = d2 > 0.0f ? d2 : 0.0f;
  }
}

void SquaredDistanceBatch(const Matrix& points, size_t point_row,
                          const PackedBlock& block, float* out) {
  SquaredDistanceBatch(points, point_row, RowSquaredNorm(points, point_row),
                       block, out);
}

void SquaredDistanceOneToMany(const Matrix& m, size_t lo, size_t hi,
                              const float* y, float* out) {
  TASTI_CHECK(lo <= hi && hi <= m.rows(), "OneToMany row range out of bounds");
  const size_t d = m.cols();
  for (size_t i = lo; i < hi; ++i) {
    out[i - lo] = SquaredDistanceFlat(m.Row(i), y, d);
  }
}

void SquaredDistanceOneToMany(const Matrix& m, size_t lo, size_t hi,
                              const Matrix& centers, size_t c, float* out) {
  TASTI_CHECK(m.cols() == centers.cols(), "OneToMany dimension mismatch");
  SquaredDistanceOneToMany(m, lo, hi, centers.Row(c), out);
}

void GemmBTBlocked(const Matrix& a, const Matrix& b, Matrix* c) {
  TASTI_CHECK(a.cols() == b.cols(), "GemmBT inner dimension mismatch");
  const size_t m = a.rows(), n = b.rows();
  if (c->rows() != m || c->cols() != n) *c = Matrix(m, n);
  const std::vector<PackedBlock> blocks = PackBlocks(b);
  for (const PackedBlock& block : blocks) {
    for (size_t i = 0; i < m; ++i) {
      DotBatch(a, i, block, c->Row(i) + block.row_begin());
    }
  }
}

}  // namespace tasti::nn
