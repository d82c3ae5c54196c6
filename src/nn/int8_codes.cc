#include "nn/int8_codes.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "nn/clones.h"
#include "util/status.h"

#if defined(TASTI_KERNEL_CLONES_ENABLED)
#include <immintrin.h>
#endif

namespace tasti::nn {

namespace {

/// Rows per packed code block (one 64-bit survivor mask) and the row
/// padding of a block (two groups of eight rows, the AVX2 tile's width).
constexpr size_t kCodeBlockRows = kDistanceBlockRows;
constexpr size_t kCodeColumnMultiple = 16;

}  // namespace

Int8Codes Int8Codes::Fit(const Matrix& m) {
  const size_t d = m.cols();
  TASTI_CHECK(d <= kMaxCodeDim, "Int8Codes: dimension wider than kMaxCodeDim");
  std::vector<float> lo(d, std::numeric_limits<float>::infinity());
  std::vector<float> hi(d, -std::numeric_limits<float>::infinity());
  for (size_t i = 0; i < m.rows(); ++i) {
    const float* x = m.Row(i);
    for (size_t p = 0; p < d; ++p) {
      if (!std::isfinite(x[p])) continue;
      lo[p] = std::min(lo[p], x[p]);
      hi[p] = std::max(hi[p], x[p]);
    }
  }
  Int8Codes codes;
  codes.centre_.assign(d, 0.0f);
  double half_range = 0.0;
  for (size_t p = 0; p < d; ++p) {
    if (lo[p] > hi[p]) continue;  // no finite value in this column
    codes.centre_[p] = lo[p] / 2 + hi[p] / 2;
    const double half =
        (static_cast<double>(hi[p]) - static_cast<double>(lo[p])) / 2;
    half_range = std::max(half_range, half);
  }
  // Any positive scale gives a valid bound (the error norms absorb the
  // rest); a set with no spread takes 1.
  const float scale = static_cast<float>(half_range / kCodeMax);
  codes.scale_ = scale > 0.0f && std::isfinite(scale) ? scale : 1.0f;
  codes.bound_factor_ = (1.0f + 1e-5f) / codes.scale_;
  codes.distance_margin_ = static_cast<float>((d + 3) * 0x1p-23);
  codes.stride_ = (d + kCodeQuad - 1) / kCodeQuad * kCodeQuad;
  codes.EncodeRows(m, 0, m.rows());
  return codes;
}

void Int8Codes::Append(const Matrix& m, size_t row_begin, size_t row_end) {
  TASTI_CHECK(m.cols() == dim(), "Int8Codes: appended row width mismatch");
  EncodeRows(m, row_begin, row_end);
}

Int8Codes Int8Codes::Encode(const Matrix& m, size_t row_begin,
                            size_t row_end) const {
  TASTI_CHECK(m.cols() == dim(), "Int8Codes: encoded row width mismatch");
  Int8Codes out;
  out.centre_ = centre_;
  out.scale_ = scale_;
  out.bound_factor_ = bound_factor_;
  out.distance_margin_ = distance_margin_;
  out.stride_ = stride_;
  out.EncodeRows(m, row_begin, row_end);
  return out;
}

void Int8Codes::EncodeRows(const Matrix& m, size_t row_begin, size_t row_end) {
  TASTI_CHECK(row_begin <= row_end && row_end <= m.rows(),
              "Int8Codes: row range out of bounds");
  const size_t d = dim();
  const size_t first = rows();
  const size_t added = row_end - row_begin;
  codes_.resize((first + added) * stride_, 0);
  norms_.resize(first + added);
  errors_.resize(first + added);
  const float inv_s = 1.0f / scale_;
  const double s = scale_;
  constexpr size_t kLanes = 4;  // independent error sums, one per p % 4
  const float* c = centre_.data();
  for (size_t i = 0; i < added; ++i) {
    const float* x = m.Row(row_begin + i);
    // int8_t stores may alias anything; the row's codes alias neither x
    // nor c, and saying so lets the loops below vectorize.
    int8_t* __restrict q = codes_.data() + (first + i) * stride_;
    // Any code gives a valid bound, so the codes are rounded in float,
    // without branches (the signs are random): round half up inside the
    // range, clamp outside it. A NaN coordinate fails the first compare and
    // takes -kCodeMax; its error is NaN.
    int32_t norm = 0;
    for (size_t p = 0; p < d; ++p) {
      constexpr float kMax = kCodeMax;
      float t = (x[p] - c[p]) * inv_s;
      t = t > -kMax ? t : -kMax;
      t = t < kMax ? t : kMax;
      const int code = static_cast<int>(t + (kMax + 0.5f)) - kCodeMax;
      q[p] = static_cast<int8_t>(code);
      norm += code * code;
    }
    // The error is exact data: x_p - c_p - s q_p in double, plus a bound on
    // that evaluation's own rounding (x_p - c_p need not be exact in double
    // when the two differ wildly in magnitude; s q_p always is).
    double err2[kLanes] = {};
    auto add_error = [&](size_t p, double* sum) {
      const double xp = x[p];
      const double cp = c[p];
      const double sq = s * q[p];
      const double r =
          std::fabs(xp - cp - sq) +
          0x1p-50 * (std::fabs(xp) + std::fabs(cp) + std::fabs(sq));
      *sum += r * r;
    };
    size_t p = 0;
    for (; p + kLanes <= d; p += kLanes) {
      for (size_t u = 0; u < kLanes; ++u) add_error(p + u, &err2[u]);
    }
    for (; p < d; ++p) add_error(p, &err2[0]);
    // In any order, the double sum and root are within (d + 2) 2^-53 of
    // exact (d is below 2^18); widen by 2^-30, then round up to float.
    const double e =
        std::sqrt((err2[0] + err2[1]) + (err2[2] + err2[3])) * (1.0 + 0x1p-30);
    float ef = static_cast<float>(e);
    if (static_cast<double>(ef) < e) {
      ef = std::nextafter(ef, std::numeric_limits<float>::infinity());
    }
    if (!(ef <= std::numeric_limits<float>::max())) {
      ef = std::numeric_limits<float>::infinity();
    }
    norms_[first + i] = norm;
    errors_[first + i] = ef;
  }
}

void PackedCodeBlock::Pack(const Int8Codes& codes, size_t code_begin,
                           size_t code_end, size_t row_begin) {
  TASTI_CHECK(code_begin <= code_end && code_end <= codes.rows() &&
                  code_end - code_begin <= kCodeBlockRows,
              "PackedCodeBlock row range out of bounds");
  row_begin_ = row_begin;
  rows_ = code_end - code_begin;
  stride_ = (rows_ + kCodeColumnMultiple - 1) / kCodeColumnMultiple *
            kCodeColumnMultiple;
  quads_ = codes.stride() / kCodeQuad;
  packed_.assign(quads_ * stride_ * kCodeQuad, 0);
  norms_.assign(stride_, 0);
  offset_norms_.assign(stride_, 0);
  errors_.assign(stride_, 0.0f);
  for (size_t j = 0; j < rows_; ++j) {
    const int8_t* q = codes.Row(code_begin + j);
    for (size_t g = 0; g < quads_; ++g) {
      std::memcpy(packed_.data() + (g * stride_ + j) * kCodeQuad,
                  q + g * kCodeQuad, kCodeQuad);
    }
    int32_t sum = 0;
    for (size_t p = 0; p < codes.stride(); ++p) sum += q[p];
    norms_[j] = codes.norm(code_begin + j);
    offset_norms_[j] = norms_[j] + 2 * kCodeOffset * sum;
    errors_[j] = codes.error(code_begin + j);
  }
}

std::vector<PackedCodeBlock> PackCodeBlocks(const Int8Codes& codes,
                                            size_t first_row) {
  std::vector<PackedCodeBlock> blocks;
  blocks.reserve((codes.rows() + kCodeBlockRows - 1) / kCodeBlockRows);
  for (size_t lo = 0; lo < codes.rows(); lo += kCodeBlockRows) {
    blocks.emplace_back();
    blocks.back().Pack(codes, lo, std::min(codes.rows(), lo + kCodeBlockRows),
                       first_row + lo);
  }
  return blocks;
}

namespace {

// The record tile of CodeBoundTile: kRows records against one block, 16
// block rows at a time. Each version computes every code distance
// |q(x) - q(r)|^2 exactly in int32 and then runs CodeBoundExceeds' float
// test on it; integer sums do not depend on their order, and the test is
// the same sequence of rounded float operations in every lane, so the two
// versions agree on every mask bit.

// Portable version: plain int32 loops over the packed layout.
template <size_t kRows>
#if defined(__GNUC__)
__attribute__((always_inline))
#endif
inline void BoundTileRowsPortable(const int8_t* const* x,
                                  const int32_t* point_norms,
                                  const float* bases, float bound_factor,
                                  const PackedCodeBlock& block,
                                  uint64_t* masks) {
  const size_t nb = block.rows();
  const size_t stride = block.stride();
  const int8_t* pk = block.packed();
  const int32_t* norms = block.norms();
  const float* errors = block.errors();
  for (size_t t = 0; t < kRows; ++t) masks[t] = 0;
  for (size_t j0 = 0; j0 < nb; j0 += kCodeColumnMultiple) {
    int32_t acc[kRows][kCodeColumnMultiple] = {};
    for (size_t g = 0; g < block.quads(); ++g) {
      const int8_t* row = pk + (g * stride + j0) * kCodeQuad;
      for (size_t t = 0; t < kRows; ++t) {
        const int8_t* xq = x[t] + g * kCodeQuad;
        for (size_t u = 0; u < kCodeColumnMultiple; ++u) {
          int32_t dot = 0;
          for (size_t b = 0; b < kCodeQuad; ++b) {
            dot += int32_t{xq[b]} * int32_t{row[u * kCodeQuad + b]};
          }
          acc[t][u] += dot;
        }
      }
    }
    const size_t lanes = std::min(kCodeColumnMultiple, nb - j0);
    for (size_t t = 0; t < kRows; ++t) {
      for (size_t u = 0; u < lanes; ++u) {
        const int32_t d2 = point_norms[t] + norms[j0 + u] - 2 * acc[t][u];
        masks[t] |= static_cast<uint64_t>(!CodeBoundExceeds(
                        d2, bases[t], errors[j0 + u], bound_factor))
                    << (j0 + u);
      }
    }
  }
}

// The code rows and code norms of records [row_begin, row_begin + kRows).
template <size_t kRows>
struct TileRecords {
  TileRecords(const Int8Codes& codes, size_t row_begin) {
    for (size_t t = 0; t < kRows; ++t) {
      x[t] = codes.Row(row_begin + t);
      norms[t] = codes.norm(row_begin + t);
    }
  }
  const int8_t* x[kRows];
  int32_t norms[kRows];
};

// One entry point per ISA; the loader's resolver picks one (nn/clones.h).
TASTI_KERNEL_DEFAULT
void BoundTile(const Int8Codes& codes, size_t row_begin, size_t rows,
               const float* bases, float bound_factor,
               const PackedCodeBlock& block, uint64_t* masks) {
  if (rows == kRecordTileRows) {
    const TileRecords<kRecordTileRows> tile(codes, row_begin);
    BoundTileRowsPortable<kRecordTileRows>(tile.x, tile.norms, bases,
                                           bound_factor, block, masks);
    return;
  }
  for (size_t t = 0; t < rows; ++t) {
    const TileRecords<1> tile(codes, row_begin + t);
    BoundTileRowsPortable<1>(tile.x, tile.norms, bases + t, bound_factor,
                             block, masks + t);
  }
}

#if defined(TASTI_KERNEL_CLONES_ENABLED)
TASTI_KERNEL_AVX2 inline __m256i LoadCodes(const int8_t* codes) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes));
}

// One record's quad of codes plus kCodeOffset, in all eight lanes.
TASTI_KERNEL_AVX2 inline __m256i BroadcastOffsetQuad(const int8_t* quad_codes,
                                                     __m256i offset) {
  int32_t quad;
  std::memcpy(&quad, quad_codes, sizeof(quad));
  return _mm256_add_epi8(_mm256_set1_epi32(quad), offset);
}

// AVX2 version: a block's 32-byte vector holds eight rows x one quad of
// codes, and a record's quad, offset by kCodeOffset to make it unsigned,
// is broadcast to all eight lanes. vpmaddubsw multiplies the offset record
// codes by the signed rep codes and adds adjacent pairs into int16 lanes;
// two quads' lanes are summed in int16 (kCodeMax keeps the sum within
// int16, see int8_codes.h), and vpmaddwd against ones widens them to int32
// lanes, each holding eight codes' products. The offset adds kCodeOffset
// sum_p q(r)_p to each dot product, which offset_norms() takes back out.
// The bound test then runs on eight lanes at once.
template <size_t kRows>
TASTI_KERNEL_AVX2 inline void BoundTileRowsAvx2(const int8_t* const* x,
                                                const int32_t* point_norms,
                                                const float* bases,
                                                float bound_factor,
                                                const PackedCodeBlock& block,
                                                uint64_t* masks) {
  const size_t nb = block.rows();
  const size_t stride = block.stride();
  const size_t quads = block.quads();
  const int8_t* pk = block.packed();
  const int32_t* norms = block.offset_norms();
  const float* errors = block.errors();
  const __m256i ones = _mm256_set1_epi16(1);
  const __m256i offset = _mm256_set1_epi8(static_cast<char>(kCodeOffset));
  const __m256 factor = _mm256_set1_ps(bound_factor);
  uint64_t skipped[kRows] = {};
  for (size_t j0 = 0; j0 < nb; j0 += kCodeColumnMultiple) {
    __m256i acc[kRows][2];
    for (size_t t = 0; t < kRows; ++t) {
      acc[t][0] = _mm256_setzero_si256();
      acc[t][1] = _mm256_setzero_si256();
    }
    size_t g = 0;
    for (; g + 2 <= quads; g += 2) {
      const __m256i b00 = LoadCodes(pk + (g * stride + j0) * kCodeQuad);
      const __m256i b01 = LoadCodes(pk + (g * stride + j0 + 8) * kCodeQuad);
      const __m256i b10 = LoadCodes(pk + ((g + 1) * stride + j0) * kCodeQuad);
      const __m256i b11 =
          LoadCodes(pk + ((g + 1) * stride + j0 + 8) * kCodeQuad);
      for (size_t t = 0; t < kRows; ++t) {
        const __m256i x0 = BroadcastOffsetQuad(x[t] + g * kCodeQuad, offset);
        const __m256i x1 =
            BroadcastOffsetQuad(x[t] + (g + 1) * kCodeQuad, offset);
        const __m256i s0 = _mm256_add_epi16(_mm256_maddubs_epi16(x0, b00),
                                            _mm256_maddubs_epi16(x1, b10));
        const __m256i s1 = _mm256_add_epi16(_mm256_maddubs_epi16(x0, b01),
                                            _mm256_maddubs_epi16(x1, b11));
        acc[t][0] = _mm256_add_epi32(acc[t][0], _mm256_madd_epi16(s0, ones));
        acc[t][1] = _mm256_add_epi32(acc[t][1], _mm256_madd_epi16(s1, ones));
      }
    }
    if (g < quads) {
      const __m256i b0 = LoadCodes(pk + (g * stride + j0) * kCodeQuad);
      const __m256i b1 = LoadCodes(pk + (g * stride + j0 + 8) * kCodeQuad);
      for (size_t t = 0; t < kRows; ++t) {
        const __m256i x0 = BroadcastOffsetQuad(x[t] + g * kCodeQuad, offset);
        acc[t][0] = _mm256_add_epi32(
            acc[t][0], _mm256_madd_epi16(_mm256_maddubs_epi16(x0, b0), ones));
        acc[t][1] = _mm256_add_epi32(
            acc[t][1], _mm256_madd_epi16(_mm256_maddubs_epi16(x0, b1), ones));
      }
    }
    // Lanes past nb read the block's zero padding; the caller's mask drops
    // them.
    for (size_t v = 0; v < 2; ++v) {
      const size_t j = j0 + 8 * v;
      const __m256i rn =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(norms + j));
      const __m256 re = _mm256_loadu_ps(errors + j);
      for (size_t t = 0; t < kRows; ++t) {
        const __m256i d2 = _mm256_sub_epi32(
            _mm256_add_epi32(_mm256_set1_epi32(point_norms[t]), rn),
            _mm256_slli_epi32(acc[t][v], 1));
        // CodeBoundExceeds, lane by lane: (base + e_r) * factor, squared,
        // against the code distance as a float.
        const __m256 lim =
            _mm256_mul_ps(_mm256_add_ps(_mm256_set1_ps(bases[t]), re), factor);
        const __m256 exceeds = _mm256_cmp_ps(
            _mm256_cvtepi32_ps(d2), _mm256_mul_ps(lim, lim), _CMP_GT_OQ);
        skipped[t] |= static_cast<uint64_t>(static_cast<uint32_t>(
                          _mm256_movemask_ps(exceeds)))
                      << j;
      }
    }
  }
  for (size_t t = 0; t < kRows; ++t) masks[t] = ~skipped[t] & AllLanes(nb);
}

TASTI_KERNEL_AVX2
void BoundTile(const Int8Codes& codes, size_t row_begin, size_t rows,
               const float* bases, float bound_factor,
               const PackedCodeBlock& block, uint64_t* masks) {
  if (rows == kRecordTileRows) {
    const TileRecords<kRecordTileRows> tile(codes, row_begin);
    BoundTileRowsAvx2<kRecordTileRows>(tile.x, tile.norms, bases,
                                       bound_factor, block, masks);
    return;
  }
  for (size_t t = 0; t < rows; ++t) {
    const TileRecords<1> tile(codes, row_begin + t);
    BoundTileRowsAvx2<1>(tile.x, tile.norms, bases + t, bound_factor, block,
                         masks + t);
  }
}
#endif

}  // namespace

void CodeBoundTile(const Int8Codes& codes, size_t row_begin, size_t rows,
                   const float* bases, float bound_factor,
                   const PackedCodeBlock& block, uint64_t* masks) {
  TASTI_CHECK(codes.stride() == block.quads() * kCodeQuad,
              "CodeBoundTile dimension mismatch");
  TASTI_CHECK(rows <= kRecordTileRows && row_begin + rows <= codes.rows(),
              "CodeBoundTile record tile out of range");
  BoundTile(codes, row_begin, rows, bases, bound_factor, block, masks);
}

}  // namespace tasti::nn
