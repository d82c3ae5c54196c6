#ifndef TASTI_NN_MATRIX_H_
#define TASTI_NN_MATRIX_H_

/// \file matrix.h
/// Minimal row-major dense float matrix used by the embedding DNN and all
/// distance computations. This is the only numeric container in the
/// library; records-by-features and records-by-embedding-dims matrices are
/// both Matrix instances.

#include <cstddef>
#include <vector>

namespace tasti::nn {

/// Alignment of every Matrix and PackedBlock buffer: one cache line, so a
/// row's offset within its lines does not depend on what else the heap
/// holds (malloc guarantees 16 bytes).
inline constexpr size_t kBufferAlignment = 64;

namespace internal {
/// `bytes` of storage starting on a kBufferAlignment boundary. The block is
/// over-allocated from plain operator new and the start rounded up;
/// aligned operator new (memalign) was measured to leave freed fragments
/// between blocks that raised the benchmark's peak RSS by 18%.
void* AllocateAligned(size_t bytes);
/// Frees a block from AllocateAligned.
void FreeAligned(void* p);
}  // namespace internal

/// std::allocator replacement that aligns to kBufferAlignment.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(internal::AllocateAligned(n * sizeof(T)));
  }
  void deallocate(T* p, size_t) { internal::FreeAligned(p); }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const { return true; }
};

/// Float storage of Matrix and PackedBlock.
using AlignedFloats = std::vector<float, AlignedAllocator<float>>;

/// Row-major dense matrix of float.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix initialized to `fill`.
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Rows this matrix can grow to before AppendRowsFrom reallocates.
  /// Exposed so growth amortization is testable (capacity probe).
  size_t row_capacity() const {
    return cols_ == 0 ? 0 : data_.capacity() / cols_;
  }

  /// Pre-allocates storage for `rows` total rows without changing shape.
  void ReserveRows(size_t rows) { data_.reserve(rows * cols_); }

  float& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Pointer to the start of row r.
  float* Row(size_t r) { return data_.data() + r * cols_; }
  const float* Row(size_t r) const { return data_.data() + r * cols_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Sets every element to `value`.
  void Fill(float value);

  /// Element-wise in-place addition; shapes must match.
  void Add(const Matrix& other);

  /// In-place multiplication by a scalar.
  void Scale(float s);

  /// Returns a new matrix whose rows are the given subset of this one.
  Matrix GatherRows(const std::vector<size_t>& indices) const;

  /// Appends the given rows of `src` to this matrix in place. Storage
  /// grows geometrically (std::vector), so P single-row appends cost
  /// amortized O(rows copied), not P full-matrix copies. An empty matrix
  /// adopts src's column count.
  void AppendRowsFrom(const Matrix& src, const std::vector<size_t>& indices);

  /// Copies the 1 x cols row `src_row` of `src` into row `dst_row`.
  void SetRow(size_t dst_row, const Matrix& src, size_t src_row);

  /// Returns the [row_begin, row_end) horizontal slice as a copy.
  Matrix RowSlice(size_t row_begin, size_t row_end) const;

 private:
  size_t rows_;
  size_t cols_;
  AlignedFloats data_;
};

/// Fewest multiply-adds per pool shard in Gemm and GemmATAccum, counted in
/// whole row tiles; a call with no more than this runs inline on the
/// caller. On a 4-vCPU host, splitting the ~3M multiply-add GEMMs of a
/// triplet batch made training slower (the pool hand-off cost more than
/// the split work saved), while the 82M multiply-add projection of 20k
/// records ran 2-3x faster split.
inline constexpr size_t kGemmMinShardMacs = size_t{1} << 22;

/// C = A * B. A is m x k, B is k x n, C is m x n (overwritten). Large
/// calls split over row tiles of C on the global pool. Every output is
/// summed from 0 in ascending p, as the serial i-k-j loop does, so the
/// result is bit-identical for any split.
void Gemm(const Matrix& a, const Matrix& b, Matrix* c);

/// C = A * B^T. A is m x k, B is n x k, C is m x n (overwritten).
void GemmBT(const Matrix& a, const Matrix& b, Matrix* c);

/// C += A^T * B. A is k x m, B is k x n, C is m x n (accumulated). Large
/// calls split over row tiles of C (columns of A) on the global pool; every
/// output adds its k products to its old value in ascending p, as the
/// serial p-i-j loop does, so the result is bit-identical for any split.
void GemmATAccum(const Matrix& a, const Matrix& b, Matrix* c);

/// Squared Euclidean distance between row `ra` of a and row `rb` of b.
/// The two matrices must have the same column count.
float SquaredDistance(const Matrix& a, size_t ra, const Matrix& b, size_t rb);

/// Euclidean distance between two rows (sqrt of SquaredDistance).
float Distance(const Matrix& a, size_t ra, const Matrix& b, size_t rb);

}  // namespace tasti::nn

#endif  // TASTI_NN_MATRIX_H_
