// Unit tests for util/: Status/Result, Rng, statistics, thread pool, tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tasti {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("k must be positive");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "InvalidArgument: k must be positive");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::IOError("disk gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, ValueOrPassesThroughOnSuccess) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(r.ValueOr("fallback"), "hello");
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(8);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.Uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.UniformInt(uint64_t{10})];
  for (int c : counts) EXPECT_NEAR(c, trials / 10, trials / 10 * 0.15);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-3}, int64_t{3});
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.variance(), 1.0, 0.03);
}

TEST(RngTest, PoissonMeanMatchesRate) {
  Rng rng(12);
  for (double rate : {0.1, 1.0, 5.0, 80.0}) {
    RunningStats stats;
    for (int i = 0; i < 20000; ++i) stats.Add(rng.Poisson(rate));
    EXPECT_NEAR(stats.mean(), rate, std::max(0.05, rate * 0.05)) << rate;
  }
}

TEST(RngTest, PoissonZeroRateIsZero) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(14);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, GeometricMeanMatches) {
  Rng rng(15);
  const double p = 0.25;
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Geometric(p));
  EXPECT_NEAR(stats.mean(), (1.0 - p) / p, 0.1);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(16);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / 100000.0, 0.1, 0.01);
  EXPECT_NEAR(counts[1] / 100000.0, 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / 100000.0, 0.6, 0.01);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(17);
  const auto sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t v : sample) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWithoutReplacementOversizedReturnsAll) {
  Rng rng(18);
  const auto sample = rng.SampleWithoutReplacement(10, 50);
  EXPECT_EQ(sample.size(), 10u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto shuffled = v;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(v.begin(), v.end()), b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(20);
  Rng fork = a.Fork(1);
  // The fork should not replay the parent's stream.
  Rng parent_copy(20);
  parent_copy.Next();  // advance past the fork's consumption
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (fork.Next() == parent_copy.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

// ---------- Stats ----------

TEST(RunningStatsTest, MeanVarianceMinMax) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 4.571428, 1e-5);
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  Rng rng(21);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(3.0, 2.0);
    all.Add(x);
    (i < 400 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningCovarianceTest, PerfectCorrelation) {
  RunningCovariance cov;
  for (int i = 0; i < 100; ++i) cov.Add(i, 2.0 * i + 1.0);
  EXPECT_NEAR(cov.correlation(), 1.0, 1e-9);
}

TEST(RunningCovarianceTest, IndependentSeriesNearZero) {
  Rng rng(22);
  RunningCovariance cov;
  for (int i = 0; i < 50000; ++i) cov.Add(rng.Normal(), rng.Normal());
  EXPECT_NEAR(cov.correlation(), 0.0, 0.02);
}

TEST(RunningCovarianceTest, ConstantSeriesGivesZero) {
  RunningCovariance cov;
  for (int i = 0; i < 10; ++i) cov.Add(1.0, i);
  EXPECT_EQ(cov.correlation(), 0.0);
}

// Reference bounds the library's empirical-Bernstein interval is compared
// against: Hoeffding's half-width and the Wilson score interval.

double HoeffdingHalfWidth(double range, size_t n, double delta) {
  TASTI_CHECK(n > 0, "HoeffdingHalfWidth requires n > 0");
  TASTI_CHECK(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
  return range * std::sqrt(std::log(2.0 / delta) / (2.0 * static_cast<double>(n)));
}

// Two-sided normal quantile for tail mass delta (i.e., z with
// P(Z > z) = delta). Beasley-Springer-Moro rational approximation.
double NormalQuantile(double p) {
  // Returns z such that Phi(z) = p, p in (0, 1).
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - plow) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

double WilsonUpperBound(size_t successes, size_t n, double delta) {
  TASTI_CHECK(n > 0, "WilsonUpperBound requires n > 0");
  TASTI_CHECK(successes <= n, "successes must not exceed n");
  const double z = NormalQuantile(1.0 - delta);
  const double nd = static_cast<double>(n);
  const double phat = static_cast<double>(successes) / nd;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / nd;
  const double center = phat + z2 / (2.0 * nd);
  const double margin =
      z * std::sqrt(phat * (1.0 - phat) / nd + z2 / (4.0 * nd * nd));
  return std::min(1.0, (center + margin) / denom);
}

double WilsonLowerBound(size_t successes, size_t n, double delta) {
  TASTI_CHECK(n > 0, "WilsonLowerBound requires n > 0");
  TASTI_CHECK(successes <= n, "successes must not exceed n");
  const double z = NormalQuantile(1.0 - delta);
  const double nd = static_cast<double>(n);
  const double phat = static_cast<double>(successes) / nd;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / nd;
  const double center = phat + z2 / (2.0 * nd);
  const double margin =
      z * std::sqrt(phat * (1.0 - phat) / nd + z2 / (4.0 * nd * nd));
  return std::max(0.0, (center - margin) / denom);
}

TEST(BoundsTest, EmpiricalBernsteinShrinksWithN) {
  const double h1 = EmpiricalBernsteinHalfWidth(1.0, 2.0, 100, 0.05);
  const double h2 = EmpiricalBernsteinHalfWidth(1.0, 2.0, 10000, 0.05);
  EXPECT_LT(h2, h1);
  EXPECT_GT(h1, 0.0);
}

TEST(BoundsTest, EmpiricalBernsteinBeatsHoeffdingAtLowVariance) {
  // With variance far below (range/2)^2, Bernstein should be tighter.
  const double bern = EmpiricalBernsteinHalfWidth(0.01, 2.0, 10000, 0.05);
  const double hoef = HoeffdingHalfWidth(2.0, 10000, 0.05);
  EXPECT_LT(bern, hoef);
}

TEST(BoundsTest, EmpiricalBernsteinCoverage) {
  // Empirical validation: the EB interval should contain the true mean in
  // (at least) ~95% of trials for bounded variables.
  Rng rng(23);
  const double true_mean = 0.3;
  int covered = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    RunningStats stats;
    for (int i = 0; i < 400; ++i) stats.Add(rng.Bernoulli(true_mean) ? 1.0 : 0.0);
    const double h = EmpiricalBernsteinHalfWidth(stats.variance(), 1.0,
                                                 stats.count(), 0.05);
    if (std::abs(stats.mean() - true_mean) <= h) ++covered;
  }
  EXPECT_GE(covered, static_cast<int>(trials * 0.95));
}

TEST(BoundsTest, WilsonBoundsBracketProportion) {
  const double lo = WilsonLowerBound(80, 100, 0.05);
  const double hi = WilsonUpperBound(80, 100, 0.05);
  EXPECT_LT(lo, 0.8);
  EXPECT_GT(hi, 0.8);
  EXPECT_GE(lo, 0.0);
  EXPECT_LE(hi, 1.0);
}

TEST(BoundsTest, WilsonExtremesStayInUnitInterval) {
  EXPECT_GE(WilsonLowerBound(0, 50, 0.05), 0.0);
  EXPECT_LE(WilsonUpperBound(50, 50, 0.05), 1.0);
  EXPECT_GT(WilsonUpperBound(0, 50, 0.05), 0.0);   // upper bound nonzero
  EXPECT_LT(WilsonLowerBound(50, 50, 0.05), 1.0);  // lower bound below one
}

TEST(VectorStatsTest, MeanVarianceCorrelation) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_DOUBLE_EQ(Mean(x), 3.0);
  EXPECT_DOUBLE_EQ(Variance(x), 2.5);
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> neg = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, neg), -1.0, 1e-12);
}

TEST(VectorStatsTest, QuantileInterpolates) {
  std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
}

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ThrowingTaskIsCountedAndThePoolKeepsRunning) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.exceptions_dropped(), 0u);
  pool.Submit([] { throw std::runtime_error("dropped"); });
  pool.Wait();
  EXPECT_EQ(pool.exceptions_dropped(), 1u);

  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran.store(true); });
  pool.Wait();
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(pool.exceptions_dropped(), 1u);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> touched(10000);
  ParallelFor(0, touched.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) touched[i].fetch_add(1);
  }, 16);
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(5, 5, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, NestedCallsDoNotDeadlock) {
  std::atomic<int> counter{0};
  ParallelFor(0, 64, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      ParallelFor(0, 16, [&](size_t l2, size_t h2) {
        counter.fetch_add(static_cast<int>(h2 - l2));
      }, 1);
    }
  }, 1);
  EXPECT_EQ(counter.load(), 64 * 16);
}

TEST(ParallelForTest, ShardExceptionFailsBatchWithoutDeadlock) {
  std::atomic<int> completed{0};
  bool threw = false;
  try {
    ParallelFor(0, 4096, [&](size_t lo, size_t hi) {
      if (lo == 0) throw std::runtime_error("shard 0 failed");
      completed.fetch_add(static_cast<int>(hi - lo));
    }, 16);
  } catch (const std::runtime_error& e) {
    threw = true;
    EXPECT_STREQ(e.what(), "shard 0 failed");
  }
  EXPECT_TRUE(threw);
  // Every other shard still ran; the pool is drained and reusable.
  EXPECT_GT(completed.load(), 0);
  std::atomic<int> after{0};
  ParallelFor(0, 1000, [&](size_t lo, size_t hi) {
    after.fetch_add(static_cast<int>(hi - lo));
  }, 8);
  EXPECT_EQ(after.load(), 1000);
}

TEST(ParallelForTest, DynamicExceptionFailsBatchWithoutDeadlock) {
  std::atomic<int> chunks{0};
  bool threw = false;
  try {
    ParallelForDynamic(0, 4096, [&](size_t lo, size_t) {
      if (lo == 0) throw std::runtime_error("chunk 0 failed");
      chunks.fetch_add(1);
    }, 16);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
  // The pool survives and later batches behave normally.
  std::atomic<int> after{0};
  ParallelForDynamic(0, 1000, [&](size_t lo, size_t hi) {
    after.fetch_add(static_cast<int>(hi - lo));
  }, 8);
  EXPECT_EQ(after.load(), 1000);
}

TEST(ParallelForTest, InlinePathPropagatesException) {
  // Small ranges run inline; the exception reaches the caller directly.
  EXPECT_THROW(
      ParallelFor(0, 4, [](size_t, size_t) { throw std::runtime_error("x"); },
                  1024),
      std::runtime_error);
}

TEST(ParallelForTest, ConcurrentIndependentCalls) {
  std::atomic<int> a{0}, b{0};
  std::thread t1([&] {
    ParallelFor(0, 5000, [&](size_t lo, size_t hi) {
      a.fetch_add(static_cast<int>(hi - lo));
    }, 8);
  });
  std::thread t2([&] {
    ParallelFor(0, 7000, [&](size_t lo, size_t hi) {
      b.fetch_add(static_cast<int>(hi - lo));
    }, 8);
  });
  t1.join();
  t2.join();
  EXPECT_EQ(a.load(), 5000);
  EXPECT_EQ(b.load(), 7000);
}

// ---------- ParallelRounds ----------

TEST(ParallelRoundsTest, EveryChunkOncePerRoundOnAtMostPoolThreads) {
  constexpr size_t kChunks = 37;
  constexpr size_t kRounds = 50;
  // hits[c] counts runs of chunk c; end_round checks each round and resets.
  std::vector<int> hits(kChunks, 0);
  std::mutex ids_mu;
  std::set<std::thread::id> ids;  // Guarded by ids_mu.
  size_t rounds = 0;
  bool all_once = true;
  ParallelRounds(kChunks, [&](size_t c) {
    ++hits[c];
    std::lock_guard<std::mutex> lock(ids_mu);
    ids.insert(std::this_thread::get_id());
  }, [&] {
    for (int& h : hits) {
      all_once = all_once && h == 1;
      h = 0;
    }
    return ++rounds < kRounds;
  });
  EXPECT_TRUE(all_once);
  EXPECT_EQ(rounds, kRounds);
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), ThreadPool::Global().num_threads());
}

TEST(ParallelRoundsTest, NoChunksStillRunsEveryRound) {
  int rounds = 0;
  ParallelRounds(0, [](size_t) { FAIL(); }, [&] { return ++rounds < 3; });
  EXPECT_EQ(rounds, 3);
}

TEST(ParallelRoundsTest, ExceptionEndsTheRegionOnTheCaller) {
  std::atomic<int> ends{0};
  EXPECT_THROW(ParallelRounds(64, [](size_t c) {
    if (c == 5) throw std::runtime_error("chunk 5 failed");
  }, [&] { return ++ends < 10; }), std::runtime_error);
  // The failing round does not run end_round and no later round starts.
  EXPECT_EQ(ends.load(), 0);
  EXPECT_THROW(ParallelRounds(64, [](size_t) {}, [] () -> bool {
    throw std::runtime_error("end_round failed");
  }), std::runtime_error);
  // The pool survives and a later region behaves normally.
  std::atomic<int> after{0};
  ParallelRounds(64, [&](size_t) { after.fetch_add(1); }, [] { return false; });
  EXPECT_EQ(after.load(), 64);
}

// ---------- Table / formatting ----------

TEST(TableTest, AlignsColumnsAndCountsRows) {
  TablePrinter table({"method", "calls"});
  table.AddRow({"TASTI-T", "21,200"});
  table.AddRow({"No proxy", "53,100"});
  EXPECT_EQ(table.num_rows(), 2u);
  const std::string out = table.ToString();
  EXPECT_NE(out.find("method"), std::string::npos);
  EXPECT_NE(out.find("TASTI-T"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(FormatTest, Numbers) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(FmtCount(1234567), "1,234,567");
  EXPECT_EQ(FmtCount(-1234), "-1,234");
  EXPECT_EQ(FmtCount(0), "0");
  EXPECT_EQ(FmtK(21200), "21.2k");
  EXPECT_EQ(FmtPercent(0.078), "7.8%");
  EXPECT_EQ(FmtDollars(1482.4), "$1,482");
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.Millis(), 15.0);
  timer.Restart();
  EXPECT_LT(timer.Millis(), 15.0);
}

TEST(TimerTest, RestartClearsAccumulatedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  timer.Restart();
  EXPECT_LT(timer.Millis(), 10.0);
}

}  // namespace
}  // namespace tasti
