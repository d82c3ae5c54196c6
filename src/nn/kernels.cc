#include "nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/clones.h"
#include "util/status.h"

#if defined(TASTI_KERNEL_CLONES_ENABLED)
#include <immintrin.h>
#endif

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
  stride_ = (rows_ + kPackedColumnMultiple - 1) / kPackedColumnMultiple *
            kPackedColumnMultiple;
  dim_ = reps.cols();
  packed_.assign(dim_ * stride_, 0.0f);
  norms_.assign(stride_, 0.0f);
  for (size_t j = 0; j < rows_; ++j) {
    const float* src = reps.Row(row_begin + j);
    for (size_t p = 0; p < dim_; ++p) packed_[p * stride_ + j] = src[p];
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
  const size_t stride = block.stride();
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
      const float* row = tile + p * stride;
      for (size_t u = 0; u < kJTile; ++u) acc[u] += xv * row[u];
    }
    for (size_t u = 0; u < kJTile; ++u) out[j0 + u] = acc[u];
  }
  if (j0 < nb) {
    for (size_t j = j0; j < nb; ++j) out[j] = 0.0f;
    for (size_t p = 0; p < d; ++p) {
      const float xv = x[p];
      const float* row = pk + p * stride;
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

namespace {

// The record tile of SquaredDistanceTile: kRows records x two vectors of
// block columns stay in registers across the whole depth loop, so each
// packed vector is loaded once for all kRows records (eight independent
// add chains, enough to hide the add latency). The loop runs whole vectors
// over the zero-padded block (PackedBlock::stride()) and stores only the
// block's real columns. Every dot starts at zero and adds its products in
// ascending p, the order of DotBatch. Force-inlined into each ISA entry
// point below, so the Vec arithmetic compiles for that entry point's
// target.
template <typename Vec, size_t kRows>
#if defined(__GNUC__)
__attribute__((always_inline))
#endif
inline void DistanceTileRows(const float* const* x, const float* point_norms,
                             const PackedBlock& block, float* out) {
  constexpr size_t kLanes = sizeof(Vec) / sizeof(float);
  constexpr size_t kVecs = 2;
  constexpr size_t kCols = kVecs * kLanes;
  static_assert(kPackedColumnMultiple % kCols == 0,
                "the packed padding covers whole column groups");
  const size_t nb = block.rows();
  const size_t stride = block.stride();
  const size_t d = block.dim();
  const float* pk = block.packed();
  const float* norms = block.norms();
  for (size_t j0 = 0; j0 < nb; j0 += kCols) {
    Vec acc[kRows][kVecs] = {};
    for (size_t p = 0; p < d; ++p) {
      const float* row = pk + p * stride + j0;
      Vec bv[kVecs];
      for (size_t v = 0; v < kVecs; ++v) {
        std::memcpy(&bv[v], row + v * kLanes, sizeof(Vec));
      }
      for (size_t t = 0; t < kRows; ++t) {
        const float xv = x[t][p];
        for (size_t v = 0; v < kVecs; ++v) acc[t][v] += xv * bv[v];
      }
    }
    for (size_t v = 0; v < kVecs; ++v) {
      const size_t j = j0 + v * kLanes;
      if (j >= nb) break;
      const size_t lanes = std::min(kLanes, nb - j);
      Vec nv;
      std::memcpy(&nv, norms + j, sizeof(Vec));
      for (size_t t = 0; t < kRows; ++t) {
        Vec d2 = point_norms[t] + nv - 2.0f * acc[t][v];
        d2 = d2 > 0.0f ? d2 : Vec{};
        if (lanes == kLanes) {
          std::memcpy(out + t * nb + j, &d2, sizeof(Vec));
        } else {
          std::memcpy(out + t * nb + j, &d2, lanes * sizeof(float));
        }
      }
    }
  }
}

template <typename Vec>
#if defined(__GNUC__)
__attribute__((always_inline))
#endif
inline void DistanceTileWith(const Matrix& points, size_t row_begin,
                             size_t rows, const float* point_norms,
                             const PackedBlock& block, float* out) {
  const float* x[kRecordTileRows];
  for (size_t t = 0; t < rows; ++t) x[t] = points.Row(row_begin + t);
  if (rows == kRecordTileRows) {
    DistanceTileRows<Vec, kRecordTileRows>(x, point_norms, block, out);
    return;
  }
  for (size_t t = 0; t < rows; ++t) {
    DistanceTileRows<Vec, 1>(x + t, point_norms + t, block,
                             out + t * block.rows());
  }
}

// One entry point per ISA over the tile above; the loader's resolver picks
// one (nn/clones.h).
TASTI_KERNEL_DEFAULT
void DistanceTile(const Matrix& points, size_t row_begin, size_t rows,
                  const float* point_norms, const PackedBlock& block,
                  float* out) {
  DistanceTileWith<Float4>(points, row_begin, rows, point_norms, block, out);
}

#if defined(TASTI_KERNEL_CLONES_ENABLED)
TASTI_KERNEL_AVX2
void DistanceTile(const Matrix& points, size_t row_begin, size_t rows,
                  const float* point_norms, const PackedBlock& block,
                  float* out) {
  DistanceTileWith<Float8>(points, row_begin, rows, point_norms, block, out);
}
#endif

}  // namespace

void SquaredDistanceTile(const Matrix& points, size_t row_begin, size_t rows,
                         const float* point_norms, const PackedBlock& block,
                         float* out) {
  TASTI_CHECK(points.cols() == block.dim(),
              "SquaredDistanceTile dimension mismatch");
  TASTI_CHECK(rows <= kRecordTileRows && row_begin + rows <= points.rows(),
              "SquaredDistanceTile record tile out of range");
  DistanceTile(points, row_begin, rows, point_norms, block, out);
}

TASTI_KERNEL_CLONES
uint64_t SurvivorMask(const float* d2, size_t n, float bound) {
  TASTI_CHECK(n <= 64, "SurvivorMask covers at most 64 lanes");
  uint64_t mask = 0;
  for (size_t j = 0; j < n; ++j) {
    mask |= static_cast<uint64_t>(!(d2[j] > bound)) << j;
  }
  return mask;
}

namespace {

constexpr size_t kPairChains = 8;

// The rows of up to kPairChains pairs from l0; a short last group repeats
// its last pair in the spare chains.
inline void PairRows(const Matrix& a, const uint32_t* a_rows, const Matrix& b,
                     const uint32_t* b_rows, size_t n, size_t l0,
                     const float** x, const float** y) {
  for (size_t l = 0; l < kPairChains; ++l) {
    const size_t pair = std::min(l0 + l, n - 1);
    x[l] = a.Row(a_rows[pair]);
    y[l] = b.Row(b_rows[pair]);
  }
}

// One entry point per ISA; the loader's resolver picks one (nn/clones.h).
// Default version: kPairChains scalar chains, interleaved.
TASTI_KERNEL_DEFAULT
void PairDistancesImpl(const Matrix& a, const uint32_t* a_rows,
                       const Matrix& b, const uint32_t* b_rows, size_t n,
                       float* out) {
  const size_t d = a.cols();
  for (size_t l0 = 0; l0 < n; l0 += kPairChains) {
    const float* x[kPairChains];
    const float* y[kPairChains];
    PairRows(a, a_rows, b, b_rows, n, l0, x, y);
    float acc[kPairChains] = {};
    for (size_t p = 0; p < d; ++p) {
      for (size_t l = 0; l < kPairChains; ++l) {
        const float diff = x[l][p] - y[l][p];
        acc[l] += diff * diff;
      }
    }
    for (size_t l = 0; l < kPairChains && l0 + l < n; ++l) {
      out[l0 + l] = std::sqrt(acc[l]);
    }
  }
}

#if defined(TASTI_KERNEL_CLONES_ENABLED)
// AVX2 version: one ymm lane per pair. Each step squares eight columns of
// every pair's difference row by row, transposes the 8 x 8 block of
// squares so that vector q holds column p + q of all eight pairs, and adds
// the columns in ascending order, so every lane rounds the same
// differences, squares and sums as nn::Distance.
TASTI_KERNEL_AVX2
void PairDistancesImpl(const Matrix& a, const uint32_t* a_rows,
                       const Matrix& b, const uint32_t* b_rows, size_t n,
                       float* out) {
  const size_t d = a.cols();
  for (size_t l0 = 0; l0 < n; l0 += kPairChains) {
    const float* x[kPairChains];
    const float* y[kPairChains];
    PairRows(a, a_rows, b, b_rows, n, l0, x, y);
    __m256 acc = _mm256_setzero_ps();
    size_t p = 0;
    for (; p + 8 <= d; p += 8) {
      __m256 sq[8];
      for (size_t l = 0; l < 8; ++l) {
        const __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(x[l] + p),
                                          _mm256_loadu_ps(y[l] + p));
        sq[l] = _mm256_mul_ps(diff, diff);
      }
      const __m256 t0 = _mm256_unpacklo_ps(sq[0], sq[1]);
      const __m256 t1 = _mm256_unpackhi_ps(sq[0], sq[1]);
      const __m256 t2 = _mm256_unpacklo_ps(sq[2], sq[3]);
      const __m256 t3 = _mm256_unpackhi_ps(sq[2], sq[3]);
      const __m256 t4 = _mm256_unpacklo_ps(sq[4], sq[5]);
      const __m256 t5 = _mm256_unpackhi_ps(sq[4], sq[5]);
      const __m256 t6 = _mm256_unpacklo_ps(sq[6], sq[7]);
      const __m256 t7 = _mm256_unpackhi_ps(sq[6], sq[7]);
      const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
      const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
      const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
      const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
      const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
      const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
      const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
      const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
      // Column p + q of all eight pairs, q = 0..7.
      acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(u0, u4, 0x20));
      acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(u1, u5, 0x20));
      acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(u2, u6, 0x20));
      acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(u3, u7, 0x20));
      acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(u0, u4, 0x31));
      acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(u1, u5, 0x31));
      acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(u2, u6, 0x31));
      acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(u3, u7, 0x31));
    }
    alignas(32) float sums[kPairChains];
    _mm256_store_ps(sums, acc);
    for (; p < d; ++p) {
      for (size_t l = 0; l < kPairChains; ++l) {
        const float diff = x[l][p] - y[l][p];
        sums[l] += diff * diff;
      }
    }
    for (size_t l = 0; l < kPairChains && l0 + l < n; ++l) {
      out[l0 + l] = std::sqrt(sums[l]);
    }
  }
}
#endif

}  // namespace

void PairDistances(const Matrix& a, const uint32_t* a_rows, const Matrix& b,
                   const uint32_t* b_rows, size_t n, float* out) {
  TASTI_CHECK(a.cols() == b.cols(), "PairDistances column mismatch");
  if (n == 0) return;
  PairDistancesImpl(a, a_rows, b, b_rows, n, out);
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
