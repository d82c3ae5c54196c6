// Unit tests for cluster/: FPF selection, its 2-approximation property,
// mixed/random selection, and top-k distance computation with cracking
// updates.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/fpf.h"
#include "cluster/topk.h"
#include "nn/int8_codes.h"
#include "nn/kernels.h"
#include "util/random.h"

namespace tasti::cluster {
namespace {

nn::Matrix RandomPoints(size_t n, size_t dim, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  nn::Matrix m(n, dim);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Normal()) * scale;
  }
  return m;
}

// Max over points of the distance to the nearest of the given centers.
float CoverageRadius(const nn::Matrix& points, const std::vector<size_t>& centers) {
  float worst = 0.0f;
  for (size_t i = 0; i < points.rows(); ++i) {
    float best = std::numeric_limits<float>::max();
    for (size_t c : centers) {
      best = std::min(best, nn::Distance(points, i, points, c));
    }
    worst = std::max(worst, best);
  }
  return worst;
}

TEST(FpfTest, SelectsRequestedCenters) {
  nn::Matrix points = RandomPoints(500, 8, 1);
  FpfResult result = FurthestPointFirst(points, 20);
  EXPECT_EQ(result.centers.size(), 20u);
  std::set<size_t> unique(result.centers.begin(), result.centers.end());
  EXPECT_EQ(unique.size(), 20u);
  EXPECT_EQ(result.min_distance.size(), 500u);
  EXPECT_EQ(result.assignment.size(), 500u);
}

TEST(FpfTest, FirstCenterIsStartIndex) {
  nn::Matrix points = RandomPoints(100, 4, 2);
  FpfResult result = FurthestPointFirst(points, 5, 42);
  EXPECT_EQ(result.centers[0], 42u);
}

TEST(FpfTest, MinDistanceIsExact) {
  nn::Matrix points = RandomPoints(200, 6, 3);
  FpfResult result = FurthestPointFirst(points, 10);
  for (size_t i = 0; i < points.rows(); ++i) {
    float best = std::numeric_limits<float>::max();
    for (size_t c : result.centers) {
      best = std::min(best, nn::Distance(points, i, points, c));
    }
    EXPECT_NEAR(result.min_distance[i], best, 1e-5f);
  }
}

TEST(FpfTest, AssignmentPointsToNearestCenter) {
  nn::Matrix points = RandomPoints(200, 6, 4);
  FpfResult result = FurthestPointFirst(points, 8);
  for (size_t i = 0; i < points.rows(); ++i) {
    const size_t assigned = result.centers[result.assignment[i]];
    const float assigned_dist = nn::Distance(points, i, points, assigned);
    EXPECT_NEAR(assigned_dist, result.min_distance[i], 1e-5f);
  }
}

TEST(FpfTest, CentersAreSpreadAcrossSeparatedClusters) {
  // Three well-separated blobs: with k=3, FPF must pick one center per blob.
  Rng rng(5);
  nn::Matrix points(300, 2);
  for (size_t i = 0; i < 300; ++i) {
    const int blob = static_cast<int>(i / 100);
    points.At(i, 0) = static_cast<float>(blob * 100.0 + rng.Normal());
    points.At(i, 1) = static_cast<float>(rng.Normal());
  }
  FpfResult result = FurthestPointFirst(points, 3);
  std::set<int> blobs;
  for (size_t c : result.centers) blobs.insert(static_cast<int>(c / 100));
  EXPECT_EQ(blobs.size(), 3u);
}

TEST(FpfTest, TwoApproximationOfOptimalRadius) {
  // Gonzalez guarantees coverage radius <= 2 * optimal. We verify against
  // a brute-force optimum on a tiny instance (n = 12, k = 3).
  nn::Matrix points = RandomPoints(12, 3, 6);
  FpfResult fpf = FurthestPointFirst(points, 3);
  const float fpf_radius = CoverageRadius(points, fpf.centers);

  float best_radius = std::numeric_limits<float>::max();
  for (size_t a = 0; a < 12; ++a)
    for (size_t b = a + 1; b < 12; ++b)
      for (size_t c = b + 1; c < 12; ++c) {
        best_radius = std::min(best_radius, CoverageRadius(points, {a, b, c}));
      }
  EXPECT_LE(fpf_radius, 2.0f * best_radius + 1e-5f);
}

TEST(FpfTest, RadiusDecreasesMonotonicallyInK) {
  nn::Matrix points = RandomPoints(400, 5, 7);
  float previous = std::numeric_limits<float>::max();
  for (size_t k : {2, 8, 32, 128}) {
    FpfResult result = FurthestPointFirst(points, k);
    const float radius =
        *std::max_element(result.min_distance.begin(), result.min_distance.end());
    EXPECT_LE(radius, previous);
    previous = radius;
  }
}

TEST(FpfTest, KLargerThanNReturnsAllPoints) {
  nn::Matrix points = RandomPoints(10, 3, 8);
  FpfResult result = FurthestPointFirst(points, 50);
  EXPECT_EQ(result.centers.size(), 10u);
}

TEST(FpfTest, DuplicatePointsStopEarly) {
  nn::Matrix points(20, 2, 1.0f);  // all identical
  FpfResult result = FurthestPointFirst(points, 5);
  EXPECT_EQ(result.centers.size(), 1u);
  for (float d : result.min_distance) EXPECT_EQ(d, 0.0f);
}

TEST(MixedSelectionTest, RespectsCountAndUniqueness) {
  nn::Matrix points = RandomPoints(300, 4, 10);
  Rng rng(11);
  const auto selected = MixedFpfRandomSelection(points, 50, 0.2, &rng);
  EXPECT_EQ(selected.size(), 50u);
  std::set<size_t> unique(selected.begin(), selected.end());
  EXPECT_EQ(unique.size(), 50u);
}

TEST(MixedSelectionTest, ZeroRandomFractionIsPureFpf) {
  nn::Matrix points = RandomPoints(100, 4, 12);
  Rng rng(13);
  const auto selected = MixedFpfRandomSelection(points, 10, 0.0, &rng);
  EXPECT_EQ(selected.size(), 10u);
}

TEST(RandomSelectionTest, UniformDistinct) {
  Rng rng(14);
  const auto selected = RandomSelection(1000, 100, &rng);
  EXPECT_EQ(selected.size(), 100u);
  std::set<size_t> unique(selected.begin(), selected.end());
  EXPECT_EQ(unique.size(), 100u);
}

// ---------- Top-k ----------

TEST(TopKTest, MatchesBruteForce) {
  nn::Matrix points = RandomPoints(150, 6, 15);
  nn::Matrix reps = RandomPoints(40, 6, 16);
  const size_t k = 5;
  TopKDistances topk = ComputeTopK(points, reps, k);
  ASSERT_EQ(topk.k, k);
  for (size_t i = 0; i < points.rows(); ++i) {
    std::vector<std::pair<float, uint32_t>> all;
    for (size_t j = 0; j < reps.rows(); ++j) {
      all.emplace_back(nn::Distance(points, i, reps, j), j);
    }
    std::sort(all.begin(), all.end());
    for (size_t j = 0; j < k; ++j) {
      EXPECT_NEAR(topk.Dist(i, j), all[j].first, 1e-5f) << i << "," << j;
    }
  }
}

TEST(TopKTest, DistancesAscendPerRecord) {
  nn::Matrix points = RandomPoints(100, 4, 17);
  nn::Matrix reps = RandomPoints(20, 4, 18);
  TopKDistances topk = ComputeTopK(points, reps, 6);
  for (size_t i = 0; i < points.rows(); ++i) {
    for (size_t j = 1; j < topk.k; ++j) {
      EXPECT_LE(topk.Dist(i, j - 1), topk.Dist(i, j));
    }
  }
}

TEST(TopKTest, KClampedToRepCount) {
  nn::Matrix points = RandomPoints(50, 4, 19);
  nn::Matrix reps = RandomPoints(3, 4, 20);
  TopKDistances topk = ComputeTopK(points, reps, 10);
  EXPECT_EQ(topk.k, 3u);
}

TEST(TopKTest, SelfDistanceIsZeroForRepPoints) {
  nn::Matrix points = RandomPoints(30, 4, 21);
  nn::Matrix reps = points.GatherRows({0, 10, 20});
  TopKDistances topk = ComputeTopK(points, reps, 1);
  EXPECT_NEAR(topk.Dist(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(topk.Dist(10, 0), 0.0f, 1e-6f);
  EXPECT_EQ(topk.RepId(20, 0), 2u);
}

/// `reps` with the rows of `extra` appended.
nn::Matrix Grown(const nn::Matrix& reps, const nn::Matrix& extra) {
  nn::Matrix grown = reps;
  std::vector<size_t> rows(extra.rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  grown.AppendRowsFrom(extra, rows);
  return grown;
}

/// Scalar reference for UpdateTopKWithNewReps: one new rep at a time over
/// every record, exact distances only, no prefilter. Returns the changed
/// rows, sorted and unique.
std::vector<uint32_t> PerRepReference(const nn::Matrix& points,
                                      const nn::Matrix& reps, size_t first_row,
                                      size_t count, TopKDistances* topk) {
  const size_t k = topk->k;
  std::set<uint32_t> dirty;
  for (size_t rep = first_row; rep < first_row + count; ++rep) {
    for (size_t i = 0; i < points.rows(); ++i) {
      float* dist = topk->distances.data() + i * k;
      uint32_t* ids = topk->rep_ids.data() + i * k;
      const float d = nn::Distance(points, i, reps, rep);
      if (d >= dist[k - 1]) continue;
      size_t pos = k - 1;
      while (pos > 0 && dist[pos - 1] > d) {
        dist[pos] = dist[pos - 1];
        ids[pos] = ids[pos - 1];
        --pos;
      }
      dist[pos] = d;
      ids[pos] = static_cast<uint32_t>(rep);
      dirty.insert(static_cast<uint32_t>(i));
    }
  }
  return {dirty.begin(), dirty.end()};
}

/// Serial count of the crack prefilter's survivors: one record at a time,
/// new reps in ascending order in blocks of nn::kDistanceBlockRows, each
/// pair's code distance |q(x) - q(r)|^2 (a plain integer loop over the
/// codes) tested against the record's threshold at the block's start with
/// the rule UpdateTopKWithNewReps documents, and survivors inserted by
/// their exact distance. Returns the number of pairs that reach the exact
/// check; works on a copy of `start`.
size_t SerialPrefilterChecks(const nn::Matrix& points,
                             const nn::Int8Codes& codes, const nn::Matrix& reps,
                             size_t first_row, size_t count,
                             TopKDistances start) {
  const size_t k = start.k;
  const nn::Int8Codes rep_codes =
      codes.Encode(reps, first_row, first_row + count);
  size_t checks = 0;
  for (size_t i = 0; i < points.rows(); ++i) {
    float* dist = start.distances.data() + i * k;
    uint32_t* ids = start.rep_ids.data() + i * k;
    for (size_t b0 = 0; b0 < count; b0 += nn::kDistanceBlockRows) {
      const float thr0 = dist[k - 1];
      for (size_t j = b0; j < std::min(count, b0 + nn::kDistanceBlockRows);
           ++j) {
        int32_t code_d2 = 0;
        for (size_t p = 0; p < codes.dim(); ++p) {
          const int32_t diff =
              int32_t{codes.Row(i)[p]} - int32_t{rep_codes.Row(j)[p]};
          code_d2 += diff * diff;
        }
        const float lim =
            (thr0 * (1.0f + codes.distance_margin()) + 1e-6f +
             codes.error(i) + rep_codes.error(j)) *
            codes.bound_factor();
        if (thr0 < std::numeric_limits<float>::max() &&
            static_cast<float>(code_d2) > lim * lim) {
          continue;
        }
        ++checks;
        const size_t rep = first_row + j;
        const float d = nn::Distance(points, i, reps, rep);
        if (d >= dist[k - 1]) continue;
        size_t pos = k - 1;
        while (pos > 0 && dist[pos - 1] > d) {
          dist[pos] = dist[pos - 1];
          ids[pos] = ids[pos - 1];
          --pos;
        }
        dist[pos] = d;
        ids[pos] = static_cast<uint32_t>(rep);
      }
    }
  }
  return checks;
}

size_t SerialPrefilterChecks(const nn::Matrix& points, const nn::Matrix& reps,
                             size_t first_row, size_t count,
                             TopKDistances start) {
  return SerialPrefilterChecks(points, nn::Int8Codes::Fit(points), reps,
                               first_row, count, std::move(start));
}

/// Applies rows [first_row, first_row + count) of `reps` to a copy of
/// `start` with both the batched update and the reference; distances must
/// match bit for bit, ids exactly, the dirty rows as a duplicate-free set,
/// and the exact-check count the serial prefilter's.
void ExpectMatchesPerRepReference(const nn::Matrix& points,
                                  const nn::Int8Codes& codes,
                                  const nn::Matrix& reps, size_t first_row,
                                  size_t count, const TopKDistances& start) {
  TopKDistances want = start;
  const std::vector<uint32_t> want_dirty =
      PerRepReference(points, reps, first_row, count, &want);
  TopKDistances got = start;
  std::vector<uint32_t> got_dirty;
  size_t got_checks = 0;
  UpdateTopKWithNewReps(points, codes, reps, first_row, count, &got,
                        &got_dirty, &got_checks);
  EXPECT_EQ(got_checks, SerialPrefilterChecks(points, codes, reps, first_row,
                                              count, start));

  ASSERT_EQ(got.distances.size(), want.distances.size());
  for (size_t i = 0; i < got.distances.size(); ++i) {
    uint32_t got_bits, want_bits;
    std::memcpy(&got_bits, &got.distances[i], sizeof(float));
    std::memcpy(&want_bits, &want.distances[i], sizeof(float));
    ASSERT_EQ(got_bits, want_bits)
        << "distance differs at record " << i / got.k << " slot " << i % got.k;
  }
  EXPECT_EQ(got.rep_ids, want.rep_ids);
  const std::set<uint32_t> got_set(got_dirty.begin(), got_dirty.end());
  EXPECT_EQ(got_set.size(), got_dirty.size()) << "duplicate dirty rows";
  EXPECT_EQ(std::vector<uint32_t>(got_set.begin(), got_set.end()), want_dirty);
}

/// The same, with the codes an index builds for `points`.
void ExpectMatchesPerRepReference(const nn::Matrix& points,
                                  const nn::Matrix& reps, size_t first_row,
                                  size_t count, const TopKDistances& start) {
  ExpectMatchesPerRepReference(points, nn::Int8Codes::Fit(points), reps,
                               first_row, count, start);
}

TEST(TopKTest, BatchedUpdateMatchesPerRepReferenceOnRandomData) {
  const nn::Matrix points = RandomPoints(400, 8, 40);
  const nn::Matrix reps = RandomPoints(30, 8, 41);
  const nn::Matrix grown = Grown(reps, RandomPoints(20, 8, 42));
  ExpectMatchesPerRepReference(points, grown, reps.rows(), 20,
                               ComputeTopK(points, reps, 4));
}

TEST(TopKTest, BatchedUpdateMatchesPerRepReferenceForOneRep) {
  const nn::Matrix points = RandomPoints(300, 6, 43);
  const nn::Matrix reps = RandomPoints(25, 6, 44);
  const nn::Matrix grown = Grown(reps, RandomPoints(1, 6, 45));
  ExpectMatchesPerRepReference(points, grown, reps.rows(), 1,
                               ComputeTopK(points, reps, 3));
}

TEST(TopKTest, BatchedUpdateMatchesPerRepReferenceAcrossPartialTiles) {
  // 65 and 130 new reps: one and two full 64-row tiles plus a short tail.
  const nn::Matrix points = RandomPoints(300, 16, 46);
  const nn::Matrix reps = RandomPoints(20, 16, 47);
  const nn::Matrix grown = Grown(reps, RandomPoints(130, 16, 48));
  const TopKDistances start = ComputeTopK(points, reps, 5);
  ExpectMatchesPerRepReference(points, grown, reps.rows(), 65, start);
  ExpectMatchesPerRepReference(points, grown, reps.rows(), 130, start);
}

TEST(TopKTest, BatchedUpdateMatchesPerRepReferenceForPartialRecordTiles) {
  // Record counts that leave 0 to 3 records past the last whole tile of
  // nn::kRecordTileRows, including fewer records than one tile.
  const nn::Matrix reps = RandomPoints(30, 8, 60);
  const nn::Matrix grown = Grown(reps, RandomPoints(20, 8, 61));
  for (size_t n : {1u, 2u, 3u, 5u, 401u, 402u, 403u}) {
    SCOPED_TRACE("records=" + std::to_string(n));
    const nn::Matrix points = RandomPoints(n, 8, 62 + n);
    ExpectMatchesPerRepReference(points, grown, reps.rows(), 20,
                                 ComputeTopK(points, reps, 4));
  }
}

TEST(TopKTest, BatchedUpdateMatchesPerRepReferenceForPartialMaskLanes) {
  // New-rep counts that leave a block partly filled (the mask's high lanes
  // unused), at dims below, between and above one vector.
  for (size_t dim : {1u, 7u, 130u}) {
    const nn::Matrix points = RandomPoints(203, dim, 70 + dim);
    const nn::Matrix reps = RandomPoints(25, dim, 71 + dim);
    const nn::Matrix grown = Grown(reps, RandomPoints(70, dim, 72 + dim));
    const TopKDistances start = ComputeTopK(points, reps, 3);
    for (size_t count : {7u, 13u, 17u, 70u}) {
      SCOPED_TRACE("dim=" + std::to_string(dim) +
                   " count=" + std::to_string(count));
      ExpectMatchesPerRepReference(points, grown, reps.rows(), count, start);
    }
  }
}

TEST(TopKTest, BatchedUpdateFillsRowsWithFewerThanKNeighbours) {
  // Unfilled slots hold FLT_MAX, so the threshold is infinite and every
  // new rep must reach the exact check.
  const nn::Matrix points = RandomPoints(200, 8, 49);
  const nn::Matrix reps = RandomPoints(10, 8, 50);
  const nn::Matrix grown = Grown(reps, RandomPoints(6, 8, 51));
  TopKDistances start = ComputeTopK(points, reps, 4);
  for (size_t i = 0; i < points.rows(); ++i) {
    for (size_t j = start.k - i % (start.k + 1); j < start.k; ++j) {
      start.distances[i * start.k + j] = std::numeric_limits<float>::max();
      start.rep_ids[i * start.k + j] = 0;
    }
  }
  ExpectMatchesPerRepReference(points, grown, reps.rows(), 6, start);
}

TEST(TopKTest, BatchedUpdateSurvivesDotTrickCancellation) {
  // Points 1e3 from the origin with 1e-2 spread: |x|^2 ~ 1.6e7, so the
  // dot-trick's rounding error (~eps * |x|^2 ~ 2) dwarfs the true squared
  // distances (~3e-3). A prefilter slack relative to the threshold alone
  // would reject true neighbours; the norm-scaled slack must not.
  const size_t dim = 16;
  auto clustered = [&](size_t n, uint64_t seed) {
    nn::Matrix m = RandomPoints(n, dim, seed, 1e-2f);
    for (size_t i = 0; i < m.size(); ++i) m.data()[i] += 1e3f;
    return m;
  };
  const nn::Matrix points = clustered(300, 52);
  const nn::Matrix reps = clustered(40, 53);
  const nn::Matrix grown = Grown(reps, clustered(70, 54));
  ExpectMatchesPerRepReference(points, grown, reps.rows(), 70,
                               ComputeTopK(points, reps, 5));
}

TEST(TopKTest, IncrementalUpdateMatchesRecompute) {
  nn::Matrix points = RandomPoints(120, 5, 22);
  nn::Matrix reps = RandomPoints(20, 5, 23);
  const size_t k = 4;
  TopKDistances incremental = ComputeTopK(points, reps, k);

  // Append 5 new reps in one batched update.
  const nn::Matrix grown = Grown(reps, RandomPoints(5, 5, 24));
  UpdateTopKWithNewReps(points, nn::Int8Codes::Fit(points), grown, reps.rows(),
                        5, &incremental, nullptr);

  TopKDistances fresh = ComputeTopK(points, grown, k);
  for (size_t i = 0; i < points.rows(); ++i) {
    for (size_t j = 0; j < k; ++j) {
      EXPECT_NEAR(incremental.Dist(i, j), fresh.Dist(i, j), 1e-5f)
          << i << "," << j;
      EXPECT_EQ(incremental.RepId(i, j), fresh.RepId(i, j)) << i << "," << j;
    }
  }
}

TEST(TopKTest, DirtyRowsAreExactlyTheChangedRecords) {
  nn::Matrix points = RandomPoints(150, 4, 31);
  nn::Matrix reps = RandomPoints(12, 4, 32);
  const size_t k = 3;
  TopKDistances topk = ComputeTopK(points, reps, k);
  const nn::Matrix grown = Grown(reps, RandomPoints(4, 4, 33));

  // One rep at a time, then the remaining two in one batch.
  for (const auto& [first, count] :
       std::vector<std::pair<size_t, size_t>>{{0, 1}, {1, 1}, {2, 2}}) {
    const TopKDistances before = topk;
    std::vector<uint32_t> dirty;
    UpdateTopKWithNewReps(points, nn::Int8Codes::Fit(points), grown,
                          reps.rows() + first, count, &topk, &dirty);
    std::set<uint32_t> dirty_set(dirty.begin(), dirty.end());
    ASSERT_EQ(dirty_set.size(), dirty.size()) << "duplicate dirty rows";
    for (size_t i = 0; i < points.rows(); ++i) {
      bool changed = false;
      for (size_t j = 0; j < k && !changed; ++j) {
        changed = topk.Dist(i, j) != before.Dist(i, j) ||
                  topk.RepId(i, j) != before.RepId(i, j);
      }
      EXPECT_EQ(dirty_set.count(static_cast<uint32_t>(i)) != 0, changed)
          << "row " << i << " dirty flag wrong after reps from " << first;
    }
  }
}

TEST(TopKTest, UpdateIgnoresFartherRep) {
  nn::Matrix points = RandomPoints(50, 3, 25);
  nn::Matrix reps = RandomPoints(10, 3, 26, 0.1f);  // tight cluster near origin
  TopKDistances topk = ComputeTopK(points, reps, 2);
  const TopKDistances before = topk;

  // A representative far from everything must not displace any entry.
  nn::Matrix far(1, reps.cols());
  for (size_t c = 0; c < reps.cols(); ++c) far.At(0, c) = 1000.0f;
  std::vector<uint32_t> dirty;
  UpdateTopKWithNewReps(points, nn::Int8Codes::Fit(points), Grown(reps, far),
                        reps.rows(), 1, &topk, &dirty);
  EXPECT_TRUE(dirty.empty());
  for (size_t i = 0; i < topk.distances.size(); ++i) {
    EXPECT_EQ(topk.distances[i], before.distances[i]);
    EXPECT_EQ(topk.rep_ids[i], before.rep_ids[i]);
  }
}

TEST(TopKTest, CrackUpdateCountsPairsAndExactChecks) {
  const nn::Matrix points = RandomPoints(500, 8, 55);
  const nn::Matrix reps = RandomPoints(40, 8, 56);
  const nn::Matrix grown = Grown(reps, RandomPoints(10, 8, 57));
  TopKDistances topk = ComputeTopK(points, reps, 3);
  std::vector<uint32_t> dirty;
  size_t checks = 0;
  UpdateTopKWithNewReps(points, nn::Int8Codes::Fit(points), grown, reps.rows(),
                        10, &topk, &dirty, &checks);

  // Every changed row passed at least one exact check; the prefilter must
  // also have rejected something on well-spread data. The call visits
  // points.rows() x count pairs, and the survivor mask skips only pairs
  // the serial prefilter rejects.
  EXPECT_GE(checks, dirty.size());
  EXPECT_LT(checks, points.rows() * 10);
  EXPECT_EQ(checks, SerialPrefilterChecks(points, grown, reps.rows(), 10,
                                          ComputeTopK(points, reps, 3)));
}

// ---------- The crack's integer lower bound (nn/int8_codes.h) ----------

int32_t CodeSquaredDistance(const nn::Int8Codes& a, size_t i,
                            const nn::Int8Codes& b, size_t j) {
  int32_t sum = 0;
  for (size_t p = 0; p < a.dim(); ++p) {
    const int32_t diff = int32_t{a.Row(i)[p]} - int32_t{b.Row(j)[p]};
    sum += diff * diff;
  }
  return sum;
}

/// Checks the crack's skip rule on every (point, rep) pair. At the
/// smallest threshold above nn::Distance (the hardest one: any larger
/// threshold must not skip either) the rule must keep the pair, and in
/// exact arithmetic s |q(x) - q(r)| - e_x - e_r must not exceed the
/// distance. Returns the share of pairs the rule skips at half their
/// distance, so a caller can check the bound is not vacuous.
double ExpectBoundHolds(const nn::Matrix& points, const nn::Int8Codes& codes,
                        const nn::Matrix& reps,
                        const nn::Int8Codes& rep_codes) {
  EXPECT_EQ(codes.rows(), points.rows());
  EXPECT_EQ(rep_codes.rows(), reps.rows());
  size_t wrong_skips = 0, loose_bounds = 0, skipped_at_half = 0;
  for (size_t i = 0; i < points.rows(); ++i) {
    for (size_t j = 0; j < reps.rows(); ++j) {
      const int32_t code_d2 = CodeSquaredDistance(codes, i, rep_codes, j);
      const float d = nn::Distance(points, i, reps, j);
      const float above = std::nextafter(d, std::numeric_limits<float>::max());
      if (nn::CodeBoundExceeds(code_d2,
                               nn::CodeBoundBase(above, codes.error(i),
                                                 codes.distance_margin()),
                               rep_codes.error(j), codes.bound_factor())) {
        ++wrong_skips;
      }
      double exact2 = 0.0;
      for (size_t p = 0; p < points.cols(); ++p) {
        const double diff = static_cast<double>(points.At(i, p)) -
                            static_cast<double>(reps.At(j, p));
        exact2 += diff * diff;
      }
      const double lower = static_cast<double>(codes.scale()) *
                               std::sqrt(static_cast<double>(code_d2)) -
                           codes.error(i) - rep_codes.error(j);
      if (lower > std::sqrt(exact2) * (1.0 + 1e-9)) ++loose_bounds;
      if (nn::CodeBoundExceeds(code_d2,
                               nn::CodeBoundBase(0.5f * d, codes.error(i),
                                                 codes.distance_margin()),
                               rep_codes.error(j), codes.bound_factor())) {
        ++skipped_at_half;
      }
    }
  }
  EXPECT_EQ(wrong_skips, 0u) << "pairs skipped at a threshold above their "
                                "nn::Distance";
  EXPECT_EQ(loose_bounds, 0u) << "bounds above the exact distance";
  return static_cast<double>(skipped_at_half) /
         static_cast<double>(points.rows() * reps.rows());
}

TEST(CodeBoundTest, BoundHoldsOnRandomSetsAcrossDims) {
  // 4100 is wider than the 4096 a fixed 1e-3 margin allowed.
  for (size_t dim : {1u, 7u, 16u, 64u, 130u, 4100u}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    const nn::Matrix points = RandomPoints(150, dim, 300 + dim);
    const nn::Int8Codes codes = nn::Int8Codes::Fit(points);
    // Reps from the same distribution plus rows of the points themselves
    // (distance zero, so thresholds of zero).
    const nn::Matrix reps =
        Grown(RandomPoints(30, dim, 400 + dim), points.GatherRows({0, 7, 149}));
    const nn::Int8Codes rep_codes = codes.Encode(reps, 0, reps.rows());
    const double skipped = ExpectBoundHolds(points, codes, reps, rep_codes);
    if (dim >= 16) {
      EXPECT_GT(skipped, 0.9);
    }
  }
}

TEST(CodeBoundTest, BoundHoldsOnNearDuplicates) {
  // Exact copies and copies perturbed by 1e-6: distances of zero and of a
  // few ulps of the coordinates, thresholds of zero.
  const size_t dim = 16;
  const nn::Matrix base = RandomPoints(20, dim, 310);
  nn::Matrix points(120, dim);
  Rng rng(311);
  for (size_t i = 0; i < points.rows(); ++i) {
    for (size_t p = 0; p < dim; ++p) {
      const float jitter =
          i % 3 == 0 ? 0.0f : static_cast<float>(rng.Normal()) * 1e-6f;
      points.At(i, p) = base.At(i % base.rows(), p) + jitter;
    }
  }
  const nn::Int8Codes codes = nn::Int8Codes::Fit(points);
  const nn::Matrix reps = points.GatherRows({0, 1, 2, 20, 21, 40, 119});
  ExpectBoundHolds(points, codes, reps, codes.Encode(reps, 0, reps.rows()));
}

TEST(CodeBoundTest, BoundHoldsFarFromTheOrigin) {
  // The 1e3-offset set of BatchedUpdateSurvivesDotTrickCancellation: the
  // per-dimension centre absorbs the offset, so the bound stays tight.
  const size_t dim = 16;
  auto clustered = [&](size_t n, uint64_t seed) {
    nn::Matrix m = RandomPoints(n, dim, seed, 1e-2f);
    for (size_t i = 0; i < m.size(); ++i) m.data()[i] += 1e3f;
    return m;
  };
  const nn::Matrix points = clustered(200, 320);
  const nn::Matrix reps = clustered(40, 321);
  const nn::Int8Codes codes = nn::Int8Codes::Fit(points);
  EXPECT_GT(ExpectBoundHolds(points, codes, reps,
                             codes.Encode(reps, 0, reps.rows())),
            0.5);
}

/// Points whose last `appended` rows lie far outside the range of the
/// rest, with codes fitted on the rest and then appended, as
/// TastiIndex::AppendRecords extends its codes.
struct AppendedSet {
  nn::Matrix points;
  nn::Int8Codes codes;
};

AppendedSet AppendOutsideRange(size_t fitted, size_t appended, size_t dim,
                               uint64_t seed) {
  AppendedSet set;
  set.points = RandomPoints(fitted, dim, seed);
  set.codes = nn::Int8Codes::Fit(set.points);
  nn::Matrix far = RandomPoints(appended, dim, seed + 1, 6.0f);
  for (size_t i = 0; i < far.size(); ++i) far.data()[i] += 4.0f;
  set.codes.Append(far, 0, far.rows());
  set.points = Grown(set.points, far);
  return set;
}

TEST(CodeBoundTest, AppendedRowsOutsideTheRangeAreClampedAndCovered) {
  const AppendedSet set = AppendOutsideRange(100, 40, 8, 330);
  ASSERT_EQ(set.codes.rows(), 140u);
  size_t clamped = 0;
  float max_fitted_error = 0.0f, min_appended_error = 1e30f;
  for (size_t i = 0; i < set.codes.rows(); ++i) {
    for (size_t p = 0; p < set.codes.dim(); ++p) {
      const int code = set.codes.Row(i)[p];
      ASSERT_LE(std::abs(code), nn::kCodeMax);
      if (i >= 100 && std::abs(code) == nn::kCodeMax) ++clamped;
    }
    if (i < 100) {
      max_fitted_error = std::max(max_fitted_error, set.codes.error(i));
    } else {
      min_appended_error = std::min(min_appended_error, set.codes.error(i));
    }
  }
  EXPECT_GT(clamped, 0u);
  EXPECT_GT(min_appended_error, max_fitted_error);
  const nn::Matrix reps = set.points.GatherRows({0, 50, 99, 100, 120, 139});
  ExpectBoundHolds(set.points, set.codes, reps,
                   set.codes.Encode(reps, 0, reps.rows()));
}

TEST(CodeBoundTest, CrackAfterAppendMatchesPerRepReference) {
  // Codes fitted on 300 records, then 100 records appended far outside
  // that range; the crack's new reps mix in-range rows, appended rows and
  // fresh out-of-range rows.
  const AppendedSet set = AppendOutsideRange(300, 100, 8, 340);
  const nn::Matrix reps = RandomPoints(25, 8, 342);
  const TopKDistances start = ComputeTopK(set.points, reps, 4);
  nn::Matrix extra = set.points.GatherRows({3, 150, 301, 350, 399});
  extra = Grown(extra, RandomPoints(60, 8, 343, 5.0f));
  const nn::Matrix grown = Grown(reps, extra);
  ExpectMatchesPerRepReference(set.points, set.codes, grown, reps.rows(),
                               extra.rows(), start);
}

TEST(CodeBoundTest, CrackWithKLargerThanTheRepCountMatchesPerRepReference) {
  // k = 6 over 3 reps: every list starts half empty (infinite threshold,
  // all lanes kept), fills inside the first block of new reps, and meets
  // the bound from the second block on.
  const nn::Matrix points = RandomPoints(250, 8, 350);
  const nn::Matrix reps = RandomPoints(3, 8, 351);
  const TopKDistances three = ComputeTopK(points, reps, 3);
  TopKDistances start;
  start.k = 6;
  start.num_records = points.rows();
  start.rep_ids.assign(points.rows() * 6, 0);
  start.distances.assign(points.rows() * 6, std::numeric_limits<float>::max());
  for (size_t i = 0; i < points.rows(); ++i) {
    for (size_t j = 0; j < 3; ++j) {
      start.rep_ids[i * 6 + j] = three.RepId(i, j);
      start.distances[i * 6 + j] = three.Dist(i, j);
    }
  }
  const nn::Matrix grown = Grown(reps, RandomPoints(70, 8, 352));
  ExpectMatchesPerRepReference(points, grown, reps.rows(), 2, start);
  ExpectMatchesPerRepReference(points, grown, reps.rows(), 70, start);
}

TEST(CodeBoundTest, CrackOfNearDuplicatesMatchesPerRepReference) {
  // Records that are exact or 1e-6 copies of each other, reps among them:
  // zero and near-zero thresholds, and new reps at distance zero.
  const size_t dim = 8;
  const nn::Matrix base = RandomPoints(30, dim, 360);
  nn::Matrix points(240, dim);
  Rng rng(361);
  for (size_t i = 0; i < points.rows(); ++i) {
    for (size_t p = 0; p < dim; ++p) {
      const float jitter =
          i % 2 == 0 ? 0.0f : static_cast<float>(rng.Normal()) * 1e-6f;
      points.At(i, p) = base.At(i % base.rows(), p) + jitter;
    }
  }
  const nn::Matrix reps = points.GatherRows({0, 1, 2, 3, 4, 5, 6, 7});
  const nn::Matrix grown =
      Grown(reps, points.GatherRows({30, 31, 60, 91, 8, 9, 38, 239}));
  ExpectMatchesPerRepReference(points, grown, reps.rows(), 8,
                               ComputeTopK(points, reps, 3));
}

}  // namespace
}  // namespace tasti::cluster
