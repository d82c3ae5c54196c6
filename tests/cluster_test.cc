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
/// new reps in ascending order, each pair's dot-trick value (the
/// SquaredDistanceBatch value, bit for bit) tested against the record's
/// current threshold with the rule UpdateTopKWithNewReps documents, and
/// survivors inserted by their exact distance. Returns the number of pairs
/// that reach the exact check; works on a copy of `start`.
size_t SerialPrefilterChecks(const nn::Matrix& points, const nn::Matrix& reps,
                             size_t first_row, size_t count,
                             TopKDistances start) {
  const size_t k = start.k;
  const float norm_slack = 16.0f * static_cast<float>(points.cols()) *
                           std::numeric_limits<float>::epsilon();
  size_t checks = 0;
  for (const nn::PackedBlock& block :
       nn::PackBlocks(reps, first_row, first_row + count)) {
    std::vector<float> d2(block.rows());
    for (size_t i = 0; i < points.rows(); ++i) {
      const float point_norm = nn::RowSquaredNorm(points, i);
      nn::SquaredDistanceBatch(points, i, point_norm, block, d2.data());
      float* dist = start.distances.data() + i * k;
      uint32_t* ids = start.rep_ids.data() + i * k;
      for (size_t j = 0; j < block.rows(); ++j) {
        const float thr = dist[k - 1];
        if (thr < std::numeric_limits<float>::max() &&
            d2[j] > thr * thr * (1.0f + 1e-3f) + 1e-6f +
                        norm_slack * (point_norm + block.norms()[j])) {
          continue;
        }
        ++checks;
        const size_t rep = block.row_begin() + j;
        const float d = nn::Distance(points, i, reps, rep);
        if (d >= thr) continue;
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

/// Applies rows [first_row, first_row + count) of `reps` to a copy of
/// `start` with both the batched update and the reference; distances must
/// match bit for bit, ids exactly, the dirty rows as a duplicate-free set,
/// and the exact-check count the serial prefilter's.
void ExpectMatchesPerRepReference(const nn::Matrix& points,
                                  const nn::Matrix& reps, size_t first_row,
                                  size_t count, const TopKDistances& start) {
  TopKDistances want = start;
  const std::vector<uint32_t> want_dirty =
      PerRepReference(points, reps, first_row, count, &want);
  TopKDistances got = start;
  std::vector<uint32_t> got_dirty;
  size_t got_checks = 0;
  UpdateTopKWithNewReps(points, reps, first_row, count, &got, &got_dirty,
                        &got_checks);
  EXPECT_EQ(got_checks,
            SerialPrefilterChecks(points, reps, first_row, count, start));

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
  UpdateTopKWithNewReps(points, grown, reps.rows(), 5, &incremental, nullptr);

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
    UpdateTopKWithNewReps(points, grown, reps.rows() + first, count, &topk,
                          &dirty);
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
  UpdateTopKWithNewReps(points, Grown(reps, far), reps.rows(), 1, &topk,
                        &dirty);
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
  UpdateTopKWithNewReps(points, grown, reps.rows(), 10, &topk, &dirty,
                        &checks);

  // Every changed row passed at least one exact check; the prefilter must
  // also have rejected something on well-spread data. The call visits
  // points.rows() x count pairs, and the survivor mask skips only pairs
  // the serial prefilter rejects.
  EXPECT_GE(checks, dirty.size());
  EXPECT_LT(checks, points.rows() * 10);
  EXPECT_EQ(checks, SerialPrefilterChecks(points, grown, reps.rows(), 10,
                                          ComputeTopK(points, reps, 3)));
}

}  // namespace
}  // namespace tasti::cluster
