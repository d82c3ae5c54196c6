#ifndef TASTI_NN_INT8_CODES_H_
#define TASTI_NN_INT8_CODES_H_

/// \file int8_codes.h
/// Int8 (7-bit) codes of embedding rows and an exact integer lower bound
/// on their Euclidean distances, the crack update's prefilter
/// (cluster::UpdateTopKWithNewReps).
///
/// One quantizer serves a whole record set: a per-dimension centre c and
/// one global scale s, q(x)_p = clamp(round((x_p - c_p) / s), -63, 63).
/// Each row keeps its code norm |q(x)|^2 and an error norm e_x >= |x - c -
/// s q(x)|, rounded up. For any two rows the triangle inequality gives
///
///   d(x, r) >= s |q(x) - q(r)| - e_x - e_r,
///
/// and |q(x) - q(r)|^2 is an exact int32 (no rounding, in any summation
/// order), so the bound holds on every host and in every kernel version.
/// A row outside the range the quantizer was fitted on is clamped; its
/// error norm covers the clamp, so the bound still holds, only looser.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/kernels.h"
#include "nn/matrix.h"

namespace tasti::nn {

/// Largest code magnitude (7-bit codes). The AVX2 tile adds kCodeOffset to
/// a record's codes, making them unsigned (vpmaddubsw's first operand), and
/// vpmaddubsw adds two products of an offset code and a signed code into
/// one int16 lane with saturation; two such lanes (two quads of
/// dimensions) are summed in int16 before widening. Both fit:
/// 2 * 2 * 127 * 63 = 32004 <= 32767, so no lane saturates.
inline constexpr int kCodeMax = 63;
inline constexpr int kCodeOffset = kCodeMax + 1;
static_assert(2 * 2 * (kCodeOffset + kCodeMax) * kCodeMax <= INT16_MAX,
              "two pairs of offset-code products must fit an int16 lane");

/// Widest code dimension: the int32 sums of both kernel versions must not
/// overflow. The largest is the AVX2 tile's offset dot product doubled,
/// 2 * (kCodeOffset + kCodeMax) * kCodeMax per dimension; the portable
/// version's sums and the code distance itself ((2 * kCodeMax)^2 per
/// dimension) are smaller. The bound's margin for nn::Distance's rounding grows with
/// the dimension (Int8Codes::distance_margin), so it sets no limit.
inline constexpr size_t kMaxCodeDim =
    INT32_MAX / (2 * (kCodeOffset + kCodeMax) * kCodeMax);
static_assert(kMaxCodeDim * (2 * kCodeMax) * (2 * kCodeMax) <= INT32_MAX,
              "code distances must fit an int32");

/// Dimensions per int32 lane of the code kernels (four int8 codes).
inline constexpr size_t kCodeQuad = 4;

/// Codes of a set of rows under one quantizer.
class Int8Codes {
 public:
  Int8Codes() = default;

  /// Fits the quantizer to the rows of `m` (each column's centre is the
  /// midpoint of its range, the scale the widest half-range over
  /// kCodeMax) and encodes every row. `m` has at most kMaxCodeDim columns.
  static Int8Codes Fit(const Matrix& m);

  /// Encodes rows [row_begin, row_end) of `m` under this quantizer and
  /// appends them; rows outside the fitted range are clamped.
  void Append(const Matrix& m, size_t row_begin, size_t row_end);

  /// A code set under this quantizer that holds only rows [row_begin,
  /// row_end) of `m`. A row's codes, norm and error are a function of its
  /// floats and the quantizer, so they equal the row's own entry wherever
  /// `m` holds a row this set already encoded.
  Int8Codes Encode(const Matrix& m, size_t row_begin, size_t row_end) const;

  size_t rows() const { return norms_.size(); }
  size_t dim() const { return centre_.size(); }
  /// dim() rounded up to a multiple of kCodeQuad; codes past dim() are 0.
  size_t stride() const { return stride_; }
  const int8_t* Row(size_t i) const { return codes_.data() + i * stride_; }
  /// |q(x_i)|^2.
  int32_t norm(size_t i) const { return norms_[i]; }
  /// Upper bound on |x_i - c - s q(x_i)| (+inf for a non-finite row).
  float error(size_t i) const { return errors_[i]; }
  const float* errors() const { return errors_.data(); }
  float scale() const { return scale_; }
  /// (1 + 1e-5) / scale(): the factor CodeBoundExceeds scales its
  /// threshold by. The 1e-5 covers the float rounding of the test itself.
  float bound_factor() const { return bound_factor_; }
  /// (dim() + 3) * 2^-23: the relative widening of a threshold that covers
  /// nn::Distance's own rounding at this dimension (CodeBoundBase).
  float distance_margin() const { return distance_margin_; }

 private:
  void EncodeRows(const Matrix& m, size_t row_begin, size_t row_end);

  std::vector<float> centre_;
  float scale_ = 1.0f;
  float bound_factor_ = 1.0f;
  float distance_margin_ = 0.0f;
  size_t stride_ = 0;
  std::vector<int8_t> codes_;
  std::vector<int32_t> norms_;
  std::vector<float> errors_;
};

/// The per-record part of the crack's skip test: the record's k-th
/// distance widened by nn::Distance's own rounding (relative
/// `distance_margin`, Int8Codes::distance_margin(), plus 1e-6 for
/// thresholds at or near zero), plus the record's error norm.
inline float CodeBoundBase(float thr, float point_error,
                           float distance_margin) {
  return thr * (1.0f + distance_margin) + 1e-6f + point_error;
}

/// True when the code distance `code_d2` = |q(x) - q(r)|^2 proves that
/// nn::Distance(x, r) >= thr for the thr in `base` = CodeBoundBase(thr,
/// e_x, m): s |q(x) - q(r)| > (base + e_r)(1 + 1e-5) implies d(x, r) >
/// thr (1 + m) + 1e-6, and nn::Distance's float sum is within a relative
/// (d / 2 + 2) 2^-24 of d(x, r), half of m = (d + 3) 2^-23. Monotone in
/// `base`, so a test against a larger threshold skips a subset. A NaN or
/// infinite error never skips.
inline bool CodeBoundExceeds(int32_t code_d2, float base, float rep_error,
                             float bound_factor) {
  const float lim = (base + rep_error) * bound_factor;
  return static_cast<float>(code_d2) > lim * lim;
}

/// A block of at most kDistanceBlockRows (64) rows of a code set, packed
/// for the tile kernel: groups of eight rows, each group holding, per quad of dimensions, one
/// 32-byte vector (row j's four codes at bytes 4j..4j+3). Rows are padded
/// to a multiple of 16 with zero codes.
class PackedCodeBlock {
 public:
  /// Packs rows [code_begin, code_end) of `codes`; row_begin() is
  /// `row_begin`, the id of the first row in the caller's numbering.
  void Pack(const Int8Codes& codes, size_t code_begin, size_t code_end,
            size_t row_begin);

  size_t rows() const { return rows_; }
  size_t row_begin() const { return row_begin_; }
  /// rows() rounded up to a multiple of 16.
  size_t stride() const { return stride_; }
  size_t quads() const { return quads_; }
  /// Element (quad g, row j, byte b) at (g * stride() + j) * kCodeQuad + b.
  const int8_t* packed() const { return packed_.data(); }
  /// Code norms and error norms, stride() entries (padding: 0).
  const int32_t* norms() const { return norms_.data(); }
  /// |q(r)|^2 + 2 kCodeOffset sum_p q(r)_p per row, stride() entries: the
  /// AVX2 tile's dot products carry the record codes' offset.
  const int32_t* offset_norms() const { return offset_norms_.data(); }
  const float* errors() const { return errors_.data(); }

 private:
  size_t row_begin_ = 0;
  size_t rows_ = 0;
  size_t stride_ = 0;
  size_t quads_ = 0;
  std::vector<int8_t> packed_;
  std::vector<int32_t> norms_;
  std::vector<int32_t> offset_norms_;
  std::vector<float> errors_;
};

/// Blocks of kDistanceBlockRows rows (the last may be shorter) over every
/// row of `codes`; block b's row_begin() is first_row + 64 b.
std::vector<PackedCodeBlock> PackCodeBlocks(const Int8Codes& codes,
                                            size_t first_row);

/// Survivor masks of a record tile against one block: for t < rows (rows
/// <= kRecordTileRows), bit j of masks[t] is set unless
/// CodeBoundExceeds(|q(x_{row_begin + t}) - q(r_j)|^2, bases[t],
/// block.errors()[j], bound_factor). The code distances are exact int32
/// values in every version, and every version runs the same float test on
/// them, so the masks agree bit for bit. `codes` and the block's codes must
/// share a quantizer.
void CodeBoundTile(const Int8Codes& codes, size_t row_begin, size_t rows,
                   const float* bases, float bound_factor,
                   const PackedCodeBlock& block, uint64_t* masks);

}  // namespace tasti::nn

#endif  // TASTI_NN_INT8_CODES_H_
