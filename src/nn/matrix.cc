#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "nn/clones.h"
#include "nn/kernels.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace tasti::nn {

namespace internal {

void* AllocateAligned(size_t bytes) {
  // The malloc'd pointer is kept in the word just below the aligned start.
  // operator new's blocks are word-aligned, so rounding up past that word
  // skips at most kBufferAlignment - sizeof(void*) bytes: the spare
  // kBufferAlignment bytes cover the word and the round-up.
  const size_t space = bytes + kBufferAlignment;
  void* raw = ::operator new(space);
  void* start = static_cast<char*>(raw) + sizeof(void*);
  size_t left = space - sizeof(void*);
  TASTI_CHECK(std::align(kBufferAlignment, bytes, start, left) != nullptr,
              "AllocateAligned: no aligned start inside the block");
  std::memcpy(static_cast<char*>(start) - sizeof(void*), &raw, sizeof(raw));
  return start;
}

void FreeAligned(void* p) {
  void* raw;
  std::memcpy(&raw, static_cast<char*>(p) - sizeof(void*), sizeof(raw));
  ::operator delete(raw);
}

}  // namespace internal

void Matrix::Fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::Add(const Matrix& other) {
  TASTI_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
              "Matrix::Add shape mismatch");
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::Scale(float s) {
  for (auto& x : data_) x *= s;
}

Matrix Matrix::GatherRows(const std::vector<size_t>& indices) const {
  // Reserve once and append via memcpy, coalescing runs of consecutive
  // source rows into one copy; the zero-fill a sized constructor would pay
  // is skipped entirely.
  Matrix out;
  out.cols_ = cols_;
  out.data_.reserve(indices.size() * cols_);
  for (size_t i = 0; i < indices.size();) {
    TASTI_CHECK(indices[i] < rows_, "GatherRows index out of range");
    size_t run = 1;
    while (i + run < indices.size() && indices[i + run] < rows_ &&
           indices[i + run] == indices[i] + run) {
      ++run;
    }
    const float* first = Row(indices[i]);
    out.data_.insert(out.data_.end(), first, first + run * cols_);
    i += run;
  }
  out.rows_ = indices.size();
  return out;
}

void Matrix::AppendRowsFrom(const Matrix& src, const std::vector<size_t>& indices) {
  if (indices.empty()) return;
  TASTI_CHECK(&src != this, "AppendRowsFrom cannot append a matrix to itself");
  if (rows_ == 0 && cols_ == 0) cols_ = src.cols();
  TASTI_CHECK(cols_ == src.cols(), "AppendRowsFrom column mismatch");
  for (size_t i = 0; i < indices.size();) {
    TASTI_CHECK(indices[i] < src.rows(), "AppendRowsFrom index out of range");
    size_t run = 1;
    while (i + run < indices.size() && indices[i + run] < src.rows() &&
           indices[i + run] == indices[i] + run) {
      ++run;
    }
    const float* first = src.Row(indices[i]);
    // vector::insert grows capacity geometrically, giving the amortized
    // O(1)-per-element append that one-record cracks rely on.
    data_.insert(data_.end(), first, first + run * cols_);
    i += run;
  }
  rows_ += indices.size();
}

void Matrix::SetRow(size_t dst_row, const Matrix& src, size_t src_row) {
  TASTI_CHECK(cols_ == src.cols(), "SetRow column mismatch");
  TASTI_CHECK(dst_row < rows_ && src_row < src.rows(), "SetRow row out of range");
  std::copy(src.Row(src_row), src.Row(src_row) + cols_, Row(dst_row));
}

Matrix Matrix::RowSlice(size_t row_begin, size_t row_end) const {
  TASTI_CHECK(row_begin <= row_end && row_end <= rows_, "RowSlice out of range");
  Matrix out(row_end - row_begin, cols_);
  std::copy(Row(row_begin), Row(row_begin) + out.size(), out.data());
  return out;
}

namespace {

// Register tile of the training GEMMs: kTileRows x kTileCols outputs stay
// in vector registers across the whole depth loop, so each B row segment
// is loaded once per tile instead of once per output row.
constexpr size_t kTileRows = 4;
constexpr size_t kTileCols = 8;

// The tile below is written once over a vector type `Vec` (nn/clones.h):
// rows of two Float4 (xmm or NEON registers) in the default build, rows
// of one Float8 (one ymm register) in the AVX2 one. Written as a plain
// float[4][8] array, GCC 12 spills the tile.

// C(i, j) += sum over p of A(i, p) * B(p, j) for rows [row_lo, row_hi) of
// C, where A(i, p) = a[i * row_stride + p * depth_stride]. Every output
// starts from its current value and adds its products in ascending p, the
// order of the plain i-k-j and p-i-j loops, on every path below. Force-
// inlined into each ISA entry point below, so the Vec arithmetic compiles
// for that entry point's target.
template <typename Vec>
#if defined(__GNUC__)
__attribute__((always_inline))
#endif
inline void AccumulateRowsWith(const float* a, size_t row_stride,
                               size_t depth_stride, const Matrix& b,
                               Matrix* c, size_t row_lo, size_t row_hi) {
  constexpr size_t kLanes = sizeof(Vec) / sizeof(float);
  constexpr size_t kVecs = kTileCols / kLanes;
  static_assert(kVecs * kLanes == kTileCols, "the tile is whole vectors");
  const size_t k = b.rows(), n = b.cols();
  size_t i = row_lo;
  for (; i + kTileRows <= row_hi; i += kTileRows) {
    const float* atile = a + i * row_stride;
    size_t j = 0;
    for (; j + kTileCols <= n; j += kTileCols) {
      Vec acc[kTileRows][kVecs];
      for (size_t u = 0; u < kTileRows; ++u) {
        const float* crow = c->Row(i + u) + j;
        for (size_t v = 0; v < kVecs; ++v) {
          std::memcpy(&acc[u][v], crow + v * kLanes, sizeof(Vec));
        }
      }
      for (size_t p = 0; p < k; ++p) {
        const float* ap = atile + p * depth_stride;
        const float* brow = b.Row(p) + j;
        Vec bv[kVecs];
        for (size_t v = 0; v < kVecs; ++v) {
          std::memcpy(&bv[v], brow + v * kLanes, sizeof(Vec));
        }
        for (size_t u = 0; u < kTileRows; ++u) {
          const float av = ap[u * row_stride];
          for (size_t v = 0; v < kVecs; ++v) acc[u][v] += av * bv[v];
        }
      }
      for (size_t u = 0; u < kTileRows; ++u) {
        float* crow = c->Row(i + u) + j;
        for (size_t v = 0; v < kVecs; ++v) {
          std::memcpy(crow + v * kLanes, &acc[u][v], sizeof(Vec));
        }
      }
    }
    for (; j < n; ++j) {
      for (size_t u = 0; u < kTileRows; ++u) {
        float acc = c->At(i + u, j);
        for (size_t p = 0; p < k; ++p) {
          acc += atile[u * row_stride + p * depth_stride] * b.At(p, j);
        }
        c->At(i + u, j) = acc;
      }
    }
  }
  for (; i < row_hi; ++i) {
    float* crow = c->Row(i);
    for (size_t p = 0; p < k; ++p) {
      const float av = a[i * row_stride + p * depth_stride];
      const float* brow = b.Row(p);
      for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// One entry point per ISA over the tile above; the loader's resolver
// picks one (nn/clones.h).
TASTI_KERNEL_DEFAULT
void AccumulateRows(const float* a, size_t row_stride, size_t depth_stride,
                    const Matrix& b, Matrix* c, size_t row_lo, size_t row_hi) {
  AccumulateRowsWith<Float4>(a, row_stride, depth_stride, b, c, row_lo,
                             row_hi);
}

#if defined(TASTI_KERNEL_CLONES_ENABLED)
TASTI_KERNEL_AVX2
void AccumulateRows(const float* a, size_t row_stride, size_t depth_stride,
                    const Matrix& b, Matrix* c, size_t row_lo, size_t row_hi) {
  AccumulateRowsWith<Float8>(a, row_stride, depth_stride, b, c, row_lo,
                             row_hi);
}
#endif

// Runs AccumulateRows over all rows of C, split into whole row tiles across
// the global pool when the call is large enough to pay for the dispatch.
// Shards write disjoint rows, and a row's result does not depend on which
// shard computes it.
void AccumulateAllRows(const float* a, size_t row_stride, size_t depth_stride,
                       const Matrix& b, Matrix* c) {
  const size_t m = c->rows();
  const size_t tiles = (m + kTileRows - 1) / kTileRows;
  const size_t tile_macs = std::max<size_t>(1, kTileRows * b.rows() * b.cols());
  const size_t min_tiles = (kGemmMinShardMacs + tile_macs - 1) / tile_macs;
  ParallelFor(0, tiles, [&](size_t lo, size_t hi) {
    AccumulateRows(a, row_stride, depth_stride, b, c, lo * kTileRows,
                   std::min(m, hi * kTileRows));
  }, min_tiles);
}

}  // namespace

void Gemm(const Matrix& a, const Matrix& b, Matrix* c) {
  TASTI_CHECK(a.cols() == b.rows(), "Gemm inner dimension mismatch");
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (c->rows() != m || c->cols() != n) *c = Matrix(m, n);
  c->Fill(0.0f);
  AccumulateAllRows(a.data(), k, 1, b, c);
}

void GemmBT(const Matrix& a, const Matrix& b, Matrix* c) {
  // Delegates to the register-blocked kernel: B is packed depth-major once
  // and every row of A streams against each cache-hot tile.
  GemmBTBlocked(a, b, c);
}

void GemmATAccum(const Matrix& a, const Matrix& b, Matrix* c) {
  TASTI_CHECK(a.rows() == b.rows(), "GemmATAccum inner dimension mismatch");
  const size_t m = a.cols(), n = b.cols();
  TASTI_CHECK(c->rows() == m && c->cols() == n, "GemmATAccum output shape mismatch");
  // Row i of C reads column i of A: unit stride across a tile's rows.
  AccumulateAllRows(a.data(), 1, m, b, c);
}

float SquaredDistance(const Matrix& a, size_t ra, const Matrix& b, size_t rb) {
  TASTI_CHECK(a.cols() == b.cols(), "SquaredDistance column mismatch");
  const float* x = a.Row(ra);
  const float* y = b.Row(rb);
  float acc = 0.0f;
  for (size_t i = 0; i < a.cols(); ++i) {
    const float d = x[i] - y[i];
    acc += d * d;
  }
  return acc;
}

float Distance(const Matrix& a, size_t ra, const Matrix& b, size_t rb) {
  return std::sqrt(SquaredDistance(a, ra, b, rb));
}

}  // namespace tasti::nn
