// Property-based tests: parameterized sweeps over seeds, sizes, and
// configurations asserting invariants (FPF 2-approximation, confidence
// bound coverage, propagation bounds, triplet-gradient correctness, and
// serialization round trips for every dataset).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <tuple>

#include "cluster/fpf.h"
#include "cluster/topk.h"
#include "core/index.h"
#include "core/propagation.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "core/serialize.h"
#include "data/dataset.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"
#include "nn/triplet.h"
#include "queries/aggregation.h"
#include "queries/limit.h"
#include "queries/supg.h"
#include "util/random.h"
#include "util/stats.h"

namespace tasti {
namespace {

nn::Matrix RandomPoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  nn::Matrix m(n, dim);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Normal());
  }
  return m;
}

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

// ---------- FPF 2-approximation over (n, k, seed) ----------

class FpfApproximationTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {};

TEST_P(FpfApproximationTest, RadiusWithinTwiceOptimal) {
  const auto [n, k, seed] = GetParam();
  nn::Matrix points = RandomPoints(n, 3, seed);
  cluster::FpfResult fpf = cluster::FurthestPointFirst(points, k);
  const float fpf_radius = CoverageRadius(points, fpf.centers);

  // Brute-force optimum over all k-subsets (parameters keep this tiny).
  float best = std::numeric_limits<float>::max();
  std::vector<size_t> subset(k);
  std::function<void(size_t, size_t)> enumerate = [&](size_t start, size_t depth) {
    if (depth == k) {
      best = std::min(best, CoverageRadius(points, subset));
      return;
    }
    for (size_t i = start; i < n; ++i) {
      subset[depth] = i;
      enumerate(i + 1, depth + 1);
    }
  };
  enumerate(0, 0);
  EXPECT_LE(fpf_radius, 2.0f * best + 1e-5f)
      << "n=" << n << " k=" << k << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, FpfApproximationTest,
    ::testing::Combine(::testing::Values<size_t>(8, 10, 12),
                       ::testing::Values<size_t>(2, 3),
                       ::testing::Values<uint64_t>(1, 2, 3, 4, 5)));

// ---------- FPF radius monotonicity over seeds ----------

class FpfMonotoneTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FpfMonotoneTest, RadiusNonIncreasingInK) {
  nn::Matrix points = RandomPoints(300, 4, GetParam());
  float prev = std::numeric_limits<float>::max();
  for (size_t k : {1, 4, 16, 64}) {
    cluster::FpfResult result = cluster::FurthestPointFirst(points, k);
    const float radius =
        *std::max_element(result.min_distance.begin(), result.min_distance.end());
    EXPECT_LE(radius, prev + 1e-6f) << "k=" << k;
    prev = radius;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FpfMonotoneTest,
                         ::testing::Values<uint64_t>(11, 22, 33, 44, 55, 66));

// ---------- Empirical Bernstein coverage over distributions ----------

struct BoundDistribution {
  const char* name;
  double (*draw)(Rng*);
  double mean;
  double range;
};

// Without this gtest prints the raw bytes of the parameter, pointers included,
// so the discovered test names would change from one build to the next.
void PrintTo(const BoundDistribution& dist, std::ostream* os) { *os << dist.name; }

double DrawBernoulli(Rng* rng) { return rng->Bernoulli(0.2) ? 1.0 : 0.0; }
double DrawUniform(Rng* rng) { return rng->Uniform(); }
double DrawBimodal(Rng* rng) {
  return rng->Bernoulli(0.5) ? rng->Uniform(0.0, 0.1) : rng->Uniform(0.9, 1.0);
}
double DrawSkewed(Rng* rng) {
  const double u = rng->Uniform();
  return u * u * u;  // mean 0.25, mass near zero
}

class BernsteinCoverageTest : public ::testing::TestWithParam<BoundDistribution> {};

TEST_P(BernsteinCoverageTest, CoversTrueMean) {
  const BoundDistribution& dist = GetParam();
  Rng rng(7 + std::hash<std::string>{}(dist.name));
  int covered = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    RunningStats stats;
    for (int i = 0; i < 300; ++i) stats.Add(dist.draw(&rng));
    const double h = EmpiricalBernsteinHalfWidth(stats.variance(), dist.range,
                                                 stats.count(), 0.05);
    if (std::abs(stats.mean() - dist.mean) <= h) ++covered;
  }
  EXPECT_GE(covered, static_cast<int>(trials * 0.95)) << dist.name;
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, BernsteinCoverageTest,
    ::testing::Values(BoundDistribution{"bernoulli", DrawBernoulli, 0.2, 1.0},
                      BoundDistribution{"uniform", DrawUniform, 0.5, 1.0},
                      BoundDistribution{"bimodal", DrawBimodal, 0.5, 1.0},
                      BoundDistribution{"skewed", DrawSkewed, 0.25, 1.0}),
    [](const ::testing::TestParamInfo<BoundDistribution>& info) {
      return info.param.name;
    });

// ---------- Triplet gradients over random seeds ----------

class TripletGradientTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TripletGradientTest, MatchesNumericDifferentiation) {
  Rng rng(GetParam());
  const size_t batch = 4, dim = 3;
  auto random_block = [&rng](size_t r, size_t c) {
    nn::Matrix m(r, c);
    for (size_t i = 0; i < m.size(); ++i) {
      m.data()[i] = static_cast<float>(rng.Normal());
    }
    return m;
  };
  nn::Matrix a = random_block(batch, dim);
  nn::Matrix p = random_block(batch, dim);
  nn::Matrix n = random_block(batch, dim);
  // Keep triplets away from the hinge kink for clean numeric gradients.
  const float margin = 3.0f;
  nn::TripletLossResult result = nn::TripletLoss(a, p, n, margin);
  const float eps = 1e-3f;
  for (size_t i = 0; i < a.size(); ++i) {
    const float orig = a.data()[i];
    a.data()[i] = orig + eps;
    const double hi = nn::TripletLossValue(a, p, n, margin);
    a.data()[i] = orig - eps;
    const double lo = nn::TripletLossValue(a, p, n, margin);
    a.data()[i] = orig;
    EXPECT_NEAR(result.grad_anchor.data()[i], (hi - lo) / (2 * eps), 5e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TripletGradientTest,
                         ::testing::Values<uint64_t>(101, 202, 303, 404, 505, 606,
                                                     707, 808));

// ---------- Top-k correctness over (points, reps, k) ----------

class TopKSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(TopKSweepTest, MatchesBruteForce) {
  const auto [n, r, k] = GetParam();
  nn::Matrix points = RandomPoints(n, 5, n * 31 + r);
  nn::Matrix reps = RandomPoints(r, 5, r * 17 + k);
  cluster::TopKDistances topk = cluster::ComputeTopK(points, reps, k);
  const size_t effective_k = std::min(k, r);
  ASSERT_EQ(topk.k, effective_k);
  Rng rng(99);
  // Spot-check a random subset of records against brute force.
  for (int check = 0; check < 20; ++check) {
    const size_t i = rng.UniformInt(n);
    std::vector<float> all;
    for (size_t j = 0; j < r; ++j) all.push_back(nn::Distance(points, i, reps, j));
    std::sort(all.begin(), all.end());
    for (size_t j = 0; j < effective_k; ++j) {
      EXPECT_NEAR(topk.Dist(i, j), all[j], 1e-5f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopKSweepTest,
    ::testing::Combine(::testing::Values<size_t>(64, 257),
                       ::testing::Values<size_t>(5, 33, 128),
                       ::testing::Values<size_t>(1, 5, 16)));

// ---------- Propagation bounds over k ----------

class PropagationSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PropagationSweepTest, ScoresStayWithinRepRange) {
  data::DatasetOptions ds_opts;
  ds_opts.num_records = 1500;
  ds_opts.seed = 91;
  data::Dataset ds = data::MakeNightStreet(ds_opts);
  core::IndexOptions opts;
  opts.num_training_records = 150;
  opts.num_representatives = 150;
  opts.embedding_dim = 16;
  opts.hidden_dim = 32;
  opts.epochs = 8;
  opts.k = 8;
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  labeler::CachingFallibleLabeler cache(&adapter);
  core::TastiIndex index = core::TastiIndex::Build(ds, &cache, opts);

  core::CountScorer scorer(data::ObjectClass::kCar);
  const auto rep_scores = core::RepresentativeScores(index, scorer);
  const double lo = *std::min_element(rep_scores.begin(), rep_scores.end());
  const double hi = *std::max_element(rep_scores.begin(), rep_scores.end());

  core::PropagationOptions prop;
  prop.k = GetParam();
  for (double s : core::ComputeProxyScores(
           index, scorer, core::PropagationMode::kNumeric, prop)) {
    EXPECT_GE(s, lo - 1e-9);
    EXPECT_LE(s, hi + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(KValues, PropagationSweepTest,
                         ::testing::Values<size_t>(1, 2, 3, 5, 8));

// ---------- Serialization round trip per dataset ----------

class SerializePerDatasetTest
    : public ::testing::TestWithParam<data::DatasetId> {};

TEST_P(SerializePerDatasetTest, RoundTripPreservesProxies) {
  data::DatasetOptions ds_opts;
  ds_opts.num_records = 800;
  ds_opts.seed = 17;
  data::Dataset ds = data::MakeDataset(GetParam(), ds_opts);

  core::IndexOptions opts;
  opts.num_training_records = 100;
  opts.num_representatives = 100;
  opts.embedding_dim = 16;
  opts.hidden_dim = 32;
  opts.epochs = 6;
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  labeler::CachingFallibleLabeler cache(&adapter);
  core::TastiIndex index = core::TastiIndex::Build(ds, &cache, opts);

  // Pick a scorer that exercises this dataset's label type.
  std::unique_ptr<core::Scorer> scorer;
  switch (GetParam()) {
    case data::DatasetId::kWikiSql:
      scorer = std::make_unique<core::PredicateCountScorer>();
      break;
    case data::DatasetId::kCommonVoice:
      scorer = std::make_unique<core::MaleScorer>();
      break;
    default:
      scorer = std::make_unique<core::CountScorer>(data::ObjectClass::kCar);
  }

  const auto before = core::ComputeProxyScores(index, *scorer);
  Result<core::TastiIndex> loaded = core::IndexSerializer::DeserializeFromString(
      core::IndexSerializer::SerializeToString(index).value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto after = core::ComputeProxyScores(*loaded, *scorer);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(before[i], after[i]) << "proxy drift at record " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, SerializePerDatasetTest,
    ::testing::ValuesIn(data::AllDatasetIds()),
    [](const ::testing::TestParamInfo<data::DatasetId>& info) {
      std::string name = data::DatasetName(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---------- Aggregation guarantee over error targets ----------

class AggregationTargetTest : public ::testing::TestWithParam<double> {};

TEST_P(AggregationTargetTest, AchievedErrorWithinTarget) {
  const double target = GetParam();
  data::DatasetOptions ds_opts;
  ds_opts.num_records = 4000;
  ds_opts.seed = 23;
  data::Dataset ds = data::MakeNightStreet(ds_opts);
  core::CountScorer scorer(data::ObjectClass::kCar);
  std::vector<double> truth;
  for (const auto& label : ds.ground_truth) truth.push_back(scorer.Score(label));
  Rng rng(24);
  std::vector<double> proxy(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) proxy[i] = truth[i] + 0.2 * rng.Normal();

  int within = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    labeler::SimulatedLabeler simulated(&ds);
    labeler::FallibleAdapter oracle(&simulated);
    queries::AggregationOptions opts;
    opts.error_target = target;
    opts.seed = 900 + t;
    queries::AggregationResult result =
        queries::TryEstimateMean(proxy, &oracle, scorer, opts).value();
    if (std::abs(result.estimate - Mean(truth)) <= target) ++within;
  }
  EXPECT_GE(within, static_cast<int>(trials * 0.9)) << "target=" << target;
}

INSTANTIATE_TEST_SUITE_P(Targets, AggregationTargetTest,
                         ::testing::Values(0.02, 0.05, 0.1));

// ---------- SUPG guarantees over budgets ----------

class SupgBudgetSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SupgBudgetSweepTest, RecallTargetMetAtEveryBudget) {
  const size_t budget = GetParam();
  data::DatasetOptions ds_opts;
  ds_opts.num_records = 4000;
  ds_opts.seed = 73;
  data::Dataset ds = data::MakeNightStreet(ds_opts);
  core::PresenceScorer scorer(data::ObjectClass::kCar);
  std::vector<double> truth;
  for (const auto& label : ds.ground_truth) truth.push_back(scorer.Score(label));
  Rng rng(74);
  std::vector<double> proxy(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    proxy[i] = std::min(1.0, std::max(0.0, truth[i] * 0.7 + 0.15 +
                                               0.1 * rng.Normal()));
  }
  int met = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    labeler::SimulatedLabeler simulated(&ds);
    labeler::FallibleAdapter oracle(&simulated);
    queries::SupgOptions opts;
    opts.budget = budget;
    opts.seed = 800 + t;
    queries::SupgResult result =
        queries::TrySupgRecallSelect(proxy, &oracle, scorer, opts).value();
    if (queries::AchievedRecall(result.selected, truth) >= opts.recall_target) {
      ++met;
    }
  }
  EXPECT_GE(met, 9) << "budget=" << budget;
}

INSTANTIATE_TEST_SUITE_P(Budgets, SupgBudgetSweepTest,
                         ::testing::Values<size_t>(200, 400, 800, 1600));

// ---------- Limit-query optimality over predicates ----------

class LimitPredicateSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(LimitPredicateSweepTest, PerfectProxyIsOptimalForEveryThreshold) {
  const int threshold = GetParam();
  data::DatasetOptions ds_opts;
  ds_opts.num_records = 8000;
  ds_opts.seed = 75;
  data::Dataset ds = data::MakeNightStreet(ds_opts);
  core::AtLeastCountScorer predicate(data::ObjectClass::kCar, threshold);
  std::vector<double> truth;
  for (const auto& label : ds.ground_truth) {
    truth.push_back(predicate.Score(label));
  }
  size_t matches = 0;
  for (double v : truth) {
    if (v >= 0.5) ++matches;
  }
  const size_t want = std::min<size_t>(5, matches);
  if (want == 0) GTEST_SKIP() << "no matches at threshold " << threshold;
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  queries::LimitOptions opts;
  opts.want = want;
  queries::LimitResult result =
      queries::TryLimitQuery(truth, &oracle, predicate, opts).value();
  EXPECT_EQ(result.labeler_invocations, want);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, LimitPredicateSweepTest,
                         ::testing::Values(1, 2, 3, 4));

// ---------- Index invariants over representative counts ----------

class RepCountSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RepCountSweepTest, CoverageImprovesWithMoreReps) {
  data::DatasetOptions ds_opts;
  ds_opts.num_records = 2000;
  ds_opts.seed = 29;
  data::Dataset ds = data::MakeNightStreet(ds_opts);

  core::IndexOptions opts;
  opts.num_training_records = 150;
  opts.num_representatives = GetParam();
  opts.embedding_dim = 16;
  opts.hidden_dim = 32;
  opts.epochs = 8;
  opts.use_triplet_training = false;  // keep the embedding fixed across runs
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  core::TastiIndex index = core::TastiIndex::Build(ds, &oracle, opts);

  // Mean nearest-representative distance is the coverage statistic the
  // theory bounds; it must shrink as reps grow. We assert against a fixed
  // baseline built with 1/4 the reps.
  core::IndexOptions small_opts = opts;
  small_opts.num_representatives = std::max<size_t>(8, GetParam() / 4);
  labeler::SimulatedLabeler oracle2_labeler(&ds);
  labeler::FallibleAdapter oracle2(&oracle2_labeler);
  core::TastiIndex small = core::TastiIndex::Build(ds, &oracle2, small_opts);

  auto mean_nearest = [](const core::TastiIndex& idx) {
    double total = 0.0;
    for (size_t i = 0; i < idx.num_records(); ++i) total += idx.topk().Dist(i, 0);
    return total / static_cast<double>(idx.num_records());
  };
  EXPECT_LE(mean_nearest(index), mean_nearest(small) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RepCounts, RepCountSweepTest,
                         ::testing::Values<size_t>(64, 128, 256, 512));

}  // namespace
}  // namespace tasti
