// Tests for the batched distance-kernel layer (nn/kernels.h): equivalence
// with the scalar reference kernels across odd shapes, numeric-safety
// clamps, and end-to-end determinism of the consumers (ComputeTopK,
// FurthestPointFirst) against scalar reference implementations on the
// seed datasets.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/fpf.h"
#include "cluster/topk.h"
#include "data/dataset.h"
#include "nn/int8_codes.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tasti {
namespace {

nn::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  nn::Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Normal());
  }
  return m;
}

// Scalar reference: the pre-kernel GemmBT (row-by-row dot products).
void GemmBTScalar(const nn::Matrix& a, const nn::Matrix& b, nn::Matrix* c) {
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (c->rows() != m || c->cols() != n) *c = nn::Matrix(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) acc += a.At(i, p) * b.At(j, p);
      c->At(i, j) = acc;
    }
  }
}

// Scalar reference top-k: the pre-kernel ComputeTopK loop.
cluster::TopKDistances ComputeTopKScalar(const nn::Matrix& points,
                                         const nn::Matrix& reps, size_t k) {
  const size_t n = points.rows();
  const size_t r = reps.rows();
  k = std::min(k, r);
  cluster::TopKDistances topk;
  topk.k = k;
  topk.num_records = n;
  topk.rep_ids.assign(n * k, 0);
  topk.distances.assign(n * k, std::numeric_limits<float>::max());
  std::vector<float> best_d(k);
  std::vector<uint32_t> best_id(k);
  for (size_t i = 0; i < n; ++i) {
    size_t filled = 0;
    for (size_t j = 0; j < r; ++j) {
      const float d = nn::Distance(points, i, reps, j);
      if (filled < k || d < best_d[filled - 1]) {
        size_t pos = filled < k ? filled : k - 1;
        while (pos > 0 && best_d[pos - 1] > d) {
          best_d[pos] = best_d[pos - 1];
          best_id[pos] = best_id[pos - 1];
          --pos;
        }
        best_d[pos] = d;
        best_id[pos] = static_cast<uint32_t>(j);
        if (filled < k) ++filled;
      }
    }
    for (size_t j = 0; j < k; ++j) {
      topk.distances[i * k + j] = best_d[j];
      topk.rep_ids[i * k + j] = best_id[j];
    }
  }
  return topk;
}

// Serial dot product that adds x[p] * y[p] in ascending depth from zero:
// the order every kernel in nn/kernels.h keeps, whichever ISA clone runs.
float SerialDot(const float* x, const float* y, size_t d) {
  float acc = 0.0f;
  for (size_t p = 0; p < d; ++p) acc += x[p] * y[p];
  return acc;
}

// Scalar reference FPF: one serial relax-and-argmax loop over the points in
// index order, with the kernel's arithmetic written out (ascending-depth
// dot products, the dot-trick combine clamped at zero, squared distances
// until one final sqrt), so the shipped FPF must match it bit for bit.
cluster::FpfResult FurthestPointFirstScalar(const nn::Matrix& points, size_t k,
                                            size_t start_index) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  k = std::min(k, n);
  std::vector<float> norms(n);
  for (size_t i = 0; i < n; ++i) {
    norms[i] = SerialDot(points.Row(i), points.Row(i), d);
  }
  std::vector<float> min_d2(n, std::numeric_limits<float>::max());
  cluster::FpfResult result;
  result.assignment.assign(n, 0);
  size_t current = start_index;
  for (size_t iter = 0; iter < k; ++iter) {
    result.centers.push_back(current);
    const float* center = points.Row(current);
    float best = -1.0f;
    size_t arg = 0;
    for (size_t i = 0; i < n; ++i) {
      const float raw = norms[current] + norms[i] -
                        2.0f * SerialDot(center, points.Row(i), d);
      const float d2 = raw > 0.0f ? raw : 0.0f;
      if (d2 < min_d2[i]) {
        min_d2[i] = d2;
        result.assignment[i] = static_cast<uint32_t>(iter);
      }
      if (min_d2[i] > best) {
        best = min_d2[i];
        arg = i;
      }
    }
    current = arg;
    if (best <= 0.0f && iter + 1 < k) break;
  }
  result.min_distance.resize(n);
  for (size_t i = 0; i < n; ++i) result.min_distance[i] = std::sqrt(min_d2[i]);
  return result;
}

// Centers, assignment and min_distance equal bit for bit.
void ExpectSameFpf(const cluster::FpfResult& actual,
                   const cluster::FpfResult& expected) {
  EXPECT_EQ(actual.centers, expected.centers);
  ASSERT_EQ(actual.assignment.size(), expected.assignment.size());
  EXPECT_EQ(std::memcmp(actual.assignment.data(), expected.assignment.data(),
                        expected.assignment.size() * sizeof(uint32_t)),
            0);
  ASSERT_EQ(actual.min_distance.size(), expected.min_distance.size());
  EXPECT_EQ(std::memcmp(actual.min_distance.data(),
                        expected.min_distance.data(),
                        expected.min_distance.size() * sizeof(float)),
            0);
}

TEST(KernelsTest, SquaredDistanceBatchMatchesScalarAcrossShapes) {
  for (size_t cols : {1u, 7u, 64u, 130u}) {
    const nn::Matrix points = RandomMatrix(23, cols, 100 + cols);
    const nn::Matrix reps = RandomMatrix(151, cols, 200 + cols);
    const auto blocks = nn::PackBlocks(reps);
    std::vector<float> d2(nn::kDistanceBlockRows);
    for (size_t i = 0; i < points.rows(); ++i) {
      for (const nn::PackedBlock& block : blocks) {
        nn::SquaredDistanceBatch(points, i, block, d2.data());
        for (size_t j = 0; j < block.rows(); ++j) {
          const float exact =
              nn::SquaredDistance(points, i, reps, block.row_begin() + j);
          EXPECT_NEAR(d2[j], exact, 1e-4f * std::max(1.0f, exact))
              << "cols=" << cols << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

TEST(KernelsTest, SquaredDistanceBatchClampsDuplicateRowsToZero) {
  // A rep that is a bitwise copy of the point must yield exactly zero:
  // the norms and the blocked dot accumulate in the same order, and the
  // kernel clamps any residual negative at zero.
  const nn::Matrix points = RandomMatrix(4, 64, 7);
  nn::Matrix reps(8, 64);
  for (size_t j = 0; j < reps.rows(); ++j) reps.SetRow(j, points, j % 4);
  const auto blocks = nn::PackBlocks(reps);
  std::vector<float> d2(nn::kDistanceBlockRows);
  for (size_t i = 0; i < points.rows(); ++i) {
    nn::SquaredDistanceBatch(points, i, blocks[0], d2.data());
    EXPECT_EQ(d2[i], 0.0f);
    EXPECT_EQ(d2[i + 4], 0.0f);
    for (size_t j = 0; j < 8; ++j) EXPECT_GE(d2[j], 0.0f);
  }
}

TEST(KernelsTest, EmptyBlockIsANoop) {
  const nn::Matrix points = RandomMatrix(2, 16, 3);
  nn::Matrix reps(0, 16);
  EXPECT_TRUE(nn::PackBlocks(reps).empty());
  nn::PackedBlock block;
  block.Pack(points, 1, 1);  // empty range
  EXPECT_TRUE(block.empty());
  float sentinel = 42.0f;
  nn::SquaredDistanceBatch(points, 0, block, &sentinel);
  EXPECT_EQ(sentinel, 42.0f);
}

TEST(KernelsTest, OneToManyMatchesScalar) {
  for (size_t cols : {1u, 7u, 64u, 130u}) {
    const nn::Matrix points = RandomMatrix(37, cols, 300 + cols);
    const nn::Matrix centers = RandomMatrix(3, cols, 400 + cols);
    std::vector<float> d2(points.rows());
    nn::SquaredDistanceOneToMany(points, 0, points.rows(), centers, 1,
                                 d2.data());
    for (size_t i = 0; i < points.rows(); ++i) {
      const float exact = nn::SquaredDistance(points, i, centers, 1);
      EXPECT_NEAR(d2[i], exact, 1e-4f * std::max(1.0f, exact));
    }
    // An empty range writes nothing.
    nn::SquaredDistanceOneToMany(points, 4, 4, centers, 0, nullptr);
  }
}

TEST(KernelsTest, GemmBTBlockedMatchesScalarAcrossShapes) {
  struct Shape {
    size_t m, k, n;
  };
  for (const Shape& s : {Shape{1, 1, 1}, Shape{3, 7, 5}, Shape{16, 64, 70},
                         Shape{5, 130, 129}, Shape{4, 32, 0}}) {
    const nn::Matrix a = RandomMatrix(s.m, s.k, s.m * 131 + s.k);
    const nn::Matrix b = RandomMatrix(s.n, s.k, s.n * 137 + s.k);
    nn::Matrix expected, actual;
    GemmBTScalar(a, b, &expected);
    nn::GemmBTBlocked(a, b, &actual);
    ASSERT_EQ(actual.rows(), s.m);
    ASSERT_EQ(actual.cols(), s.n);
    for (size_t i = 0; i < s.m; ++i) {
      for (size_t j = 0; j < s.n; ++j) {
        EXPECT_NEAR(actual.At(i, j), expected.At(i, j),
                    1e-4f * std::max(1.0f, std::fabs(expected.At(i, j))))
            << s.m << "x" << s.k << "x" << s.n;
      }
    }
  }
}

// ---------- Bit identity of the ISA-dispatched kernels ----------
//
// The loader runs one clone of DotBatch (and so of SquaredDistanceBatch
// and GemmBTBlocked); whichever it is, every output must equal, bit for
// bit, a serial loop that starts at zero and adds x[p] * y[p] in ascending
// depth. Block widths are not multiples of 8 or 16, so both the tiled and
// the remainder columns are covered. Each test records the clone it ran
// as the `kernel_isa` property (in --gtest_output=xml reports).

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

constexpr size_t kBitDims[] = {1, 7, 64, 130};
constexpr size_t kBitBlockRows[] = {5, 13, 37, 64};

TEST(KernelsBitIdentityTest, DotBatchEqualsSerialLoop) {
  RecordProperty("kernel_isa", nn::KernelIsa());
  for (size_t d : kBitDims) {
    const nn::Matrix points = RandomMatrix(9, d, 500 + d);
    const nn::Matrix reps = RandomMatrix(83, d, 600 + d);
    for (size_t block_rows : kBitBlockRows) {
      for (const nn::PackedBlock& block : nn::PackBlocks(reps, block_rows)) {
        std::vector<float> out(block.rows());
        for (size_t i = 0; i < points.rows(); ++i) {
          nn::DotBatch(points, i, block, out.data());
          for (size_t j = 0; j < block.rows(); ++j) {
            const float expected =
                SerialDot(points.Row(i), reps.Row(block.row_begin() + j), d);
            ASSERT_TRUE(SameBits(out[j], expected))
                << "d=" << d << " block_rows=" << block_rows << " i=" << i
                << " j=" << j << ": " << out[j] << " vs " << expected;
          }
        }
      }
    }
  }
}

TEST(KernelsBitIdentityTest, SquaredDistanceBatchEqualsSerialDotTrick) {
  RecordProperty("kernel_isa", nn::KernelIsa());
  for (size_t d : kBitDims) {
    const nn::Matrix points = RandomMatrix(9, d, 700 + d);
    const nn::Matrix reps = RandomMatrix(83, d, 800 + d);
    for (size_t block_rows : kBitBlockRows) {
      for (const nn::PackedBlock& block : nn::PackBlocks(reps, block_rows)) {
        std::vector<float> out(block.rows());
        for (size_t i = 0; i < points.rows(); ++i) {
          nn::SquaredDistanceBatch(points, i, block, out.data());
          const float* x = points.Row(i);
          const float x_norm = SerialDot(x, x, d);
          for (size_t j = 0; j < block.rows(); ++j) {
            const float* y = reps.Row(block.row_begin() + j);
            const float d2 = x_norm + SerialDot(y, y, d) -
                             2.0f * SerialDot(x, y, d);
            const float expected = d2 > 0.0f ? d2 : 0.0f;
            ASSERT_TRUE(SameBits(out[j], expected))
                << "d=" << d << " block_rows=" << block_rows << " i=" << i
                << " j=" << j << ": " << out[j] << " vs " << expected;
          }
        }
      }
    }
  }
}

TEST(KernelsBitIdentityTest, SquaredDistanceTileEqualsSerialDotTrick) {
  // Every tile height 1..kRecordTileRows at every start row, so the full
  // 4-record tile and the one-record fallback both meet whole vector pairs
  // and remainder columns.
  RecordProperty("kernel_isa", nn::KernelIsa());
  for (size_t d : kBitDims) {
    const nn::Matrix points = RandomMatrix(9, d, 1100 + d);
    const nn::Matrix reps = RandomMatrix(83, d, 1200 + d);
    std::vector<float> norms(points.rows());
    for (size_t i = 0; i < points.rows(); ++i) {
      norms[i] = SerialDot(points.Row(i), points.Row(i), d);
    }
    for (size_t block_rows : kBitBlockRows) {
      for (const nn::PackedBlock& block : nn::PackBlocks(reps, block_rows)) {
        const size_t nb = block.rows();
        std::vector<float> out(nn::kRecordTileRows * nb);
        std::vector<float> expected(out.size());
        for (size_t rows = 1; rows <= nn::kRecordTileRows; ++rows) {
          for (size_t i0 = 0; i0 + rows <= points.rows(); ++i0) {
            nn::SquaredDistanceTile(points, i0, rows, norms.data() + i0, block,
                                    out.data());
            for (size_t t = 0; t < rows; ++t) {
              const float* x = points.Row(i0 + t);
              for (size_t j = 0; j < nb; ++j) {
                const float* y = reps.Row(block.row_begin() + j);
                const float d2 = norms[i0 + t] + SerialDot(y, y, d) -
                                 2.0f * SerialDot(x, y, d);
                expected[t * nb + j] = d2 > 0.0f ? d2 : 0.0f;
              }
            }
            ASSERT_EQ(std::memcmp(out.data(), expected.data(),
                                  rows * nb * sizeof(float)),
                      0)
                << "d=" << d << " block_rows=" << block_rows
                << " rows=" << rows << " i0=" << i0;
          }
        }
      }
    }
  }
}

TEST(KernelsBitIdentityTest, SurvivorMaskEqualsScalarTest) {
  RecordProperty("kernel_isa", nn::KernelIsa());
  Rng rng(1300);
  for (size_t n : {1u, 7u, 8u, 13u, 17u, 63u, 64u}) {
    std::vector<float> d2(n);
    for (size_t j = 0; j < n; ++j) d2[j] = static_cast<float>(rng.Uniform());
    // A NaN distance survives, like the scalar test it stands for; a lane
    // equal to the bound survives too.
    d2[n / 2] = std::numeric_limits<float>::quiet_NaN();
    d2[n - 1] = 0.25f;
    for (float bound : {0.5f, 0.25f, 0.0f, 2.0f}) {
      const uint64_t mask = nn::SurvivorMask(d2.data(), n, bound);
      for (size_t j = 0; j < n; ++j) {
        const bool survives = !(d2[j] > bound);
        EXPECT_EQ(((mask >> j) & 1) != 0, survives)
            << "n=" << n << " j=" << j << " bound=" << bound;
      }
      if (n < 64) {
        EXPECT_EQ(mask >> n, 0u) << "lanes past n are set";
      }
    }
  }
}

TEST(KernelsBitIdentityTest, CodeBoundTileEqualsScalarTest) {
  // Records of +-1 entries code to +-kCodeMax, the products that come
  // closest to saturating the AVX2 tile's int16 lanes; the other rows are
  // Gaussian. Thresholds run from zero (most lanes skipped) through the
  // median code distance to FLT_MAX (an unfilled list: every lane kept).
  RecordProperty("kernel_isa", nn::KernelIsa());
  Rng rng(1400);
  for (size_t d : kBitDims) {
    nn::Matrix points = RandomMatrix(11, d, 1500 + d);
    for (size_t i = 0; i < 5; ++i) {
      for (size_t p = 0; p < d; ++p) {
        points.At(i, p) = rng.Uniform() < 0.5 ? -1.0f : 1.0f;
      }
    }
    const nn::Int8Codes codes = nn::Int8Codes::Fit(points);
    nn::Matrix reps = RandomMatrix(83, d, 1600 + d);
    for (size_t j = 0; j < 9; ++j) reps.SetRow(j, points, j % 5);
    const nn::Int8Codes rep_codes = codes.Encode(reps, 0, reps.rows());
    auto code_d2 = [&](size_t i, size_t j) {
      int32_t sum = 0;
      for (size_t p = 0; p < d; ++p) {
        const int32_t diff =
            int32_t{codes.Row(i)[p]} - int32_t{rep_codes.Row(j)[p]};
        sum += diff * diff;
      }
      return sum;
    };
    const float median =
        codes.scale() * std::sqrt(static_cast<float>(code_d2(7, 40)));
    for (size_t block_rows : kBitBlockRows) {
      for (size_t b0 = 0; b0 < reps.rows(); b0 += block_rows) {
        nn::PackedCodeBlock block;
        block.Pack(rep_codes, b0, std::min(reps.rows(), b0 + block_rows),
                   b0);
        for (float thr : {0.0f, 0.5f * median, median,
                          std::numeric_limits<float>::max()}) {
          for (size_t rows = 1; rows <= nn::kRecordTileRows; ++rows) {
            for (size_t i0 = 0; i0 + rows <= points.rows(); ++i0) {
              float bases[nn::kRecordTileRows];
              uint64_t masks[nn::kRecordTileRows];
              for (size_t t = 0; t < rows; ++t) {
                bases[t] = nn::CodeBoundBase(thr, codes.error(i0 + t),
                                             codes.distance_margin());
              }
              nn::CodeBoundTile(codes, i0, rows, bases, codes.bound_factor(),
                                block, masks);
              for (size_t t = 0; t < rows; ++t) {
                uint64_t expected = 0;
                for (size_t j = 0; j < block.rows(); ++j) {
                  expected |= static_cast<uint64_t>(!nn::CodeBoundExceeds(
                                  code_d2(i0 + t, b0 + j), bases[t],
                                  rep_codes.error(b0 + j),
                                  codes.bound_factor()))
                              << j;
                }
                ASSERT_EQ(masks[t], expected)
                    << "d=" << d << " block_rows=" << block_rows
                    << " b0=" << b0 << " thr=" << thr << " rows=" << rows
                    << " i0=" << i0 << " t=" << t;
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelsBitIdentityTest, CodeBoundTileSumsFitAtTheWidestDimension) {
  // Rows of +-1 code to +-kCodeMax. At kMaxCodeDim, a record of +1 against
  // a rep of -1 has the largest code distance, and against a rep of +1 the
  // largest offset dot product of the AVX2 tile; neither may wrap.
  RecordProperty("kernel_isa", nn::KernelIsa());
  const size_t d = nn::kMaxCodeDim;
  Rng rng(1800);
  nn::Matrix points(nn::kRecordTileRows, d);
  nn::Matrix reps(16, d);
  for (size_t p = 0; p < d; ++p) {
    points.At(0, p) = 1.0f;
    points.At(1, p) = -1.0f;
    points.At(2, p) = p % 2 == 0 ? 1.0f : -1.0f;
    points.At(3, p) = rng.Uniform() < 0.5 ? -1.0f : 1.0f;
    for (size_t j = 0; j < reps.rows(); ++j) {
      reps.At(j, p) = j < nn::kRecordTileRows
                          ? points.At(j, p)
                          : (rng.Uniform() < 0.5 ? -1.0f : 1.0f);
    }
  }
  const nn::Int8Codes codes = nn::Int8Codes::Fit(points);
  ASSERT_EQ(codes.Row(0)[0], nn::kCodeMax);
  ASSERT_EQ(codes.Row(1)[0], -nn::kCodeMax);
  const nn::Int8Codes rep_codes = codes.Encode(reps, 0, reps.rows());
  nn::PackedCodeBlock block;
  block.Pack(rep_codes, 0, reps.rows(), 0);
  for (float thr : {0.0f, 100.0f, 300.0f, 600.0f}) {
    float bases[nn::kRecordTileRows];
    uint64_t masks[nn::kRecordTileRows];
    for (size_t t = 0; t < nn::kRecordTileRows; ++t) {
      bases[t] = nn::CodeBoundBase(thr, codes.error(t),
                                   codes.distance_margin());
    }
    nn::CodeBoundTile(codes, 0, nn::kRecordTileRows, bases,
                      codes.bound_factor(), block, masks);
    for (size_t t = 0; t < nn::kRecordTileRows; ++t) {
      uint64_t expected = 0;
      for (size_t j = 0; j < reps.rows(); ++j) {
        int64_t sum = 0;
        for (size_t p = 0; p < d; ++p) {
          const int64_t diff =
              int64_t{codes.Row(t)[p]} - int64_t{rep_codes.Row(j)[p]};
          sum += diff * diff;
        }
        ASSERT_LE(sum, INT32_MAX);
        expected |= static_cast<uint64_t>(!nn::CodeBoundExceeds(
                        static_cast<int32_t>(sum), bases[t],
                        rep_codes.error(j), codes.bound_factor()))
                    << j;
      }
      EXPECT_EQ(masks[t], expected) << "thr=" << thr << " t=" << t;
    }
  }
}

TEST(KernelsBitIdentityTest, PairDistancesEqualNnDistance) {
  RecordProperty("kernel_isa", nn::KernelIsa());
  Rng rng(1700);
  for (size_t d : kBitDims) {
    const nn::Matrix a = RandomMatrix(31, d, 1800 + d);
    const nn::Matrix b = RandomMatrix(17, d, 1900 + d);
    for (size_t n : {1u, 7u, 8u, 9u, 16u, 41u}) {
      std::vector<uint32_t> a_rows(n), b_rows(n);
      for (size_t l = 0; l < n; ++l) {
        a_rows[l] = static_cast<uint32_t>(rng.UniformInt(a.rows()));
        b_rows[l] = static_cast<uint32_t>(rng.UniformInt(b.rows()));
      }
      std::vector<float> out(n), expected(n);
      nn::PairDistances(a, a_rows.data(), b, b_rows.data(), n, out.data());
      for (size_t l = 0; l < n; ++l) {
        expected[l] = nn::Distance(a, a_rows[l], b, b_rows[l]);
      }
      ASSERT_EQ(std::memcmp(out.data(), expected.data(), n * sizeof(float)), 0)
          << "d=" << d << " n=" << n;
    }
  }
}

TEST(KernelsBitIdentityTest, GemmBTBlockedEqualsSerialLoop) {
  RecordProperty("kernel_isa", nn::KernelIsa());
  for (size_t d : kBitDims) {
    for (size_t n : {1u, 13u, 37u, 70u, 131u}) {
      const nn::Matrix a = RandomMatrix(11, d, 900 + d + n);
      const nn::Matrix b = RandomMatrix(n, d, 1000 + d + n);
      nn::Matrix actual;
      nn::GemmBTBlocked(a, b, &actual);
      ASSERT_EQ(actual.rows(), a.rows());
      ASSERT_EQ(actual.cols(), n);
      for (size_t i = 0; i < a.rows(); ++i) {
        for (size_t j = 0; j < n; ++j) {
          const float expected = SerialDot(a.Row(i), b.Row(j), d);
          ASSERT_TRUE(SameBits(actual.At(i, j), expected))
              << "d=" << d << " n=" << n << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

TEST(KernelsTest, ComputeTopKMatchesScalarReferenceOnRandomData) {
  const nn::Matrix points = RandomMatrix(500, 64, 11);
  const nn::Matrix reps = RandomMatrix(130, 64, 12);
  const auto fast = cluster::ComputeTopK(points, reps, 5);
  const auto ref = ComputeTopKScalar(points, reps, 5);
  ASSERT_EQ(fast.k, ref.k);
  for (size_t i = 0; i < points.rows(); ++i) {
    for (size_t j = 0; j < fast.k; ++j) {
      EXPECT_EQ(fast.RepId(i, j), ref.RepId(i, j)) << i << "," << j;
      EXPECT_NEAR(fast.Dist(i, j), ref.Dist(i, j),
                  1e-4f * std::max(1.0f, ref.Dist(i, j)));
    }
  }
}

TEST(KernelsTest, ComputeTopKHandlesKLargerThanReps) {
  const nn::Matrix points = RandomMatrix(20, 7, 21);
  const nn::Matrix reps = RandomMatrix(3, 7, 22);
  const auto topk = cluster::ComputeTopK(points, reps, 10);
  EXPECT_EQ(topk.k, 3u);  // clamped to the rep count
  const auto ref = ComputeTopKScalar(points, reps, 10);
  for (size_t i = 0; i < points.rows(); ++i) {
    for (size_t j = 0; j < topk.k; ++j) {
      EXPECT_EQ(topk.RepId(i, j), ref.RepId(i, j));
    }
  }
}

TEST(KernelsTest, TopKDeterministicVsScalarOnSeedDataset) {
  data::DatasetOptions opts;
  opts.num_records = 1500;
  const data::Dataset dataset = data::MakeNightStreet(opts);
  const nn::Matrix& features = dataset.features;
  std::vector<size_t> rep_rows;
  for (size_t i = 0; i < 120; ++i) rep_rows.push_back(i * 12 + 1);
  const nn::Matrix reps = features.GatherRows(rep_rows);
  const auto fast = cluster::ComputeTopK(features, reps, 5);
  const auto ref = ComputeTopKScalar(features, reps, 5);
  for (size_t i = 0; i < features.rows(); ++i) {
    for (size_t j = 0; j < fast.k; ++j) {
      ASSERT_EQ(fast.RepId(i, j), ref.RepId(i, j)) << i << "," << j;
    }
  }
  // Run-to-run determinism of the batched implementation itself.
  const auto again = cluster::ComputeTopK(features, reps, 5);
  EXPECT_EQ(fast.rep_ids, again.rep_ids);
  EXPECT_EQ(fast.distances, again.distances);
}

TEST(KernelsTest, FpfDeterministicVsScalarOnSeedDataset) {
  data::DatasetOptions opts;
  opts.num_records = 1200;
  const data::Dataset dataset = data::MakeNightStreet(opts);
  const auto fast = cluster::FurthestPointFirst(dataset.features, 40, 17);
  const auto ref = FurthestPointFirstScalar(dataset.features, 40, 17);
  ExpectSameFpf(fast, ref);
  const auto again = cluster::FurthestPointFirst(dataset.features, 40, 17);
  EXPECT_EQ(fast.centers, again.centers);
  EXPECT_EQ(fast.assignment, again.assignment);
}

// ---------- FPF's parallel region against the scalar reference ----------
//
// At these sizes the relax splits into 20 or more chunks, so FurthestPoint-
// First runs as a ParallelRounds region with helpers (the 1,200-point seed
// test above fits in few chunks). Each case is checked from a plain thread,
// from inside pool tasks (where the region runs inline), from two threads
// whose regions share the pool, and with every pool thread blocked.

struct FpfCase {
  const char* name;
  nn::Matrix points;
  size_t k;
  size_t start;
  cluster::FpfResult expected;
};

// `distinct` random rows, each repeated so that copies of one row sit far
// apart: exact duplicates tie in every argmax, and the run stops early
// once k exceeds the distinct rows.
nn::Matrix DuplicatedRows(size_t n, size_t distinct, size_t d, uint64_t seed) {
  const nn::Matrix base = RandomMatrix(distinct, d, seed);
  nn::Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(m.Row(i), base.Row((i * 7) % distinct), d * sizeof(float));
  }
  return m;
}

class FpfRegionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cases_ = new std::vector<FpfCase>();
    cases_->push_back({"random", RandomMatrix(5000, 32, 41), 250, 123, {}});
    cases_->push_back(
        {"duplicates", DuplicatedRows(6000, 1500, 24, 42), 300, 5, {}});
    cases_->push_back(
        {"duplicates_stop_early", DuplicatedRows(5000, 150, 16, 43), 200, 0,
         {}});
    for (FpfCase& c : *cases_) {
      c.expected = FurthestPointFirstScalar(c.points, c.k, c.start);
    }
  }
  static void TearDownTestSuite() {
    delete cases_;
    cases_ = nullptr;
  }

  static cluster::FpfResult Run(const FpfCase& c) {
    return cluster::FurthestPointFirst(c.points, c.k, c.start);
  }

  static std::vector<FpfCase>* cases_;
};

std::vector<FpfCase>* FpfRegionTest::cases_ = nullptr;

TEST_F(FpfRegionTest, MatchesScalarFromOneThread) {
  for (const FpfCase& c : *cases_) {
    SCOPED_TRACE(c.name);
    ExpectSameFpf(Run(c), c.expected);
  }
  // The duplicate cases really tie, and the last one really stops early.
  EXPECT_EQ((*cases_)[2].expected.centers.size(), 150u);
}

TEST_F(FpfRegionTest, MatchesScalarInsidePoolTasks) {
  std::vector<cluster::FpfResult> results(cases_->size());
  ParallelFor(0, cases_->size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) results[i] = Run((*cases_)[i]);
  }, /*min_shard_size=*/1);
  for (size_t i = 0; i < cases_->size(); ++i) {
    SCOPED_TRACE((*cases_)[i].name);
    ExpectSameFpf(results[i], (*cases_)[i].expected);
  }
}

TEST_F(FpfRegionTest, MatchesScalarFromTwoThreadsAtOnce) {
  for (int repeat = 0; repeat < 3; ++repeat) {
    cluster::FpfResult a, b;
    std::thread ta([&] { a = Run((*cases_)[0]); });
    std::thread tb([&] { b = Run((*cases_)[1]); });
    ta.join();
    tb.join();
    ExpectSameFpf(a, (*cases_)[0].expected);
    ExpectSameFpf(b, (*cases_)[1].expected);
  }
}

TEST_F(FpfRegionTest, CallerFinishesAloneWhilePoolIsBlocked) {
  ThreadPool& pool = ThreadPool::Global();
  std::mutex mu;
  std::condition_variable cv;
  size_t blocked = 0;    // Guarded by mu.
  bool release = false;  // Guarded by mu.
  for (size_t t = 0; t < pool.num_threads(); ++t) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++blocked;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocked == pool.num_threads(); });
  }
  // Every pool thread waits for FPF to return, so the regions' helpers
  // queue behind them and the caller must run every round itself.
  std::vector<cluster::FpfResult> alone;
  for (const FpfCase& c : *cases_) alone.push_back(Run(c));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  // The queued helpers now start after their regions ended; they must
  // return without touching the finished calls' frames.
  pool.Wait();
  for (size_t i = 0; i < cases_->size(); ++i) {
    SCOPED_TRACE((*cases_)[i].name);
    ExpectSameFpf(alone[i], (*cases_)[i].expected);
  }
}

TEST(KernelsTest, ParallelForDynamicCoversEveryIndexOnce) {
  const size_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  ParallelForDynamic(0, n, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  }, 64);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // Empty ranges are a no-op.
  ParallelForDynamic(5, 5, [&](size_t, size_t) { FAIL(); }, 16);
}

}  // namespace
}  // namespace tasti
