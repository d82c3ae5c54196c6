// Tests of the benchmark's own helpers: the tail-percentile choice, the
// guarantee allowance, the span bookkeeping, and the oracle and scorer
// decorators.

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "core/scorer.h"
#include "data/dataset.h"
#include "decorators.h"
#include "labeler/labeler.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

// Samples strictly above the nearest-rank position of p among n samples.
size_t Beyond(size_t n, double p) {
  const size_t rank = static_cast<size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9)));
  return n - rank;
}

TEST(ChooseTailTest, KeepsAtLeastTenSamplesBeyond) {
  const double ladder[] = {50, 75, 90, 95, 99, 99.9, 99.99};
  for (size_t n = 20; n <= 200000; n += (n < 2000 ? 1 : 997)) {
    const TailChoice tail = ChooseTail(n);
    EXPECT_GE(tail.beyond, 10u) << "n=" << n;
    EXPECT_EQ(tail.beyond, Beyond(n, tail.percentile)) << "n=" << n;
    // No higher rung would still leave ten samples beyond it.
    for (double p : ladder) {
      if (p > tail.percentile) {
        EXPECT_LT(Beyond(n, p), 10u) << "n=" << n << " p=" << p;
      }
    }
  }
}

TEST(ChooseTailTest, KnownRungs) {
  EXPECT_EQ(ChooseTail(40).percentile, 75.0);
  EXPECT_EQ(ChooseTail(99).percentile, 75.0);
  EXPECT_EQ(ChooseTail(100).percentile, 90.0);
  EXPECT_EQ(ChooseTail(200).percentile, 95.0);
  EXPECT_EQ(ChooseTail(1000).percentile, 99.0);
  EXPECT_EQ(ChooseTail(10000).percentile, 99.9);
}

TEST(ChooseTailTest, TooFewSamplesFallBackToMedian) {
  const TailChoice tail = ChooseTail(12);
  EXPECT_EQ(tail.percentile, 50.0);
  EXPECT_EQ(tail.beyond, 6u);
  EXPECT_EQ(ChooseTail(0).beyond, 0u);
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT_EQ(Percentile(values, 50), 50.0);
  EXPECT_EQ(Percentile(values, 90), 90.0);
  EXPECT_EQ(Percentile(values, 100), 100.0);
  EXPECT_EQ(Median({3.0}), 3.0);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(GuaranteeRateTest, BinomialAllowance) {
  EXPECT_TRUE(GuaranteeRateOk(10, 1, 0.95));   // one miss is always allowed
  EXPECT_FALSE(GuaranteeRateOk(10, 3, 0.95));
  EXPECT_TRUE(GuaranteeRateOk(400, 30, 0.95));  // 20 expected, sd ~4.4
  EXPECT_FALSE(GuaranteeRateOk(400, 40, 0.95));
}

TEST(TracerTest, SelfTimeAndUnaccounted) {
  Tracer tracer(true);
  {
    ScopedSpan window(&tracer, "bench.window");
    {
      ScopedSpan outer(&tracer, "queries.aggregate", 7);
      ScopedSpan inner(&tracer, "labeler.call", 7);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].parent, 1);
  EXPECT_EQ(tracer.spans()[2].query_id, 7u);
  EXPECT_LT(tracer.SelfSeconds("queries."), 0.004);
  EXPECT_GT(tracer.TotalSeconds("queries.aggregate"), 0.004);
  // The nested labeler span is not counted twice; about half the window
  // is outside any layer span.
  EXPECT_GT(tracer.UnaccountedFraction(), 0.3);
  EXPECT_LT(tracer.UnaccountedFraction(), 0.7);
}

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer tracer(false);
  { ScopedSpan span(&tracer, "core.propagate"); }
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.UnaccountedFraction(), 0.0);
}

tasti::data::Dataset SmallDataset() {
  tasti::data::DatasetOptions options;
  options.num_records = 300;
  options.seed = 5;
  return tasti::data::MakeNightStreet(options);
}

TEST(CountingOracleTest, AgreesWithInnerInvocations) {
  const tasti::data::Dataset dataset = SmallDataset();
  for (bool timing : {false, true}) {
    tasti::labeler::SimulatedLabeler simulated(&dataset);
    tasti::labeler::FallibleAdapter adapter(&simulated);
    CountingOracle oracle(&adapter, dataset.size(), timing);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&oracle, t] {
        for (size_t i = 0; i < 250; ++i) {
          if (i % 2 == 0) {
            oracle.TryLabel((i * 7 + t) % 300);
          } else {
            oracle.TryLabelWithin((i * 7 + t) % 300, 5.0);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(oracle.calls(), simulated.invocations());
    EXPECT_EQ(oracle.invocations(), simulated.invocations());
    EXPECT_EQ(oracle.calls(), 1000u);
    EXPECT_EQ(oracle.busy_seconds() > 0.0, timing);
  }
}

TEST(FixedCostOracleTest, ForwardsAndTakesItsCost) {
  const tasti::data::Dataset dataset = SmallDataset();
  tasti::labeler::SimulatedLabeler simulated(&dataset);
  tasti::labeler::FallibleAdapter adapter(&simulated);
  FixedCostOracle costly(&adapter, /*cost_us=*/200.0);
  const int64_t start = NowNs();
  for (size_t i = 0; i < 50; ++i) {
    tasti::Result<tasti::data::LabelerOutput> label = costly.TryLabel(i);
    ASSERT_TRUE(label.ok());
    EXPECT_EQ(tasti::data::CountClass(*label, tasti::data::ObjectClass::kCar),
              tasti::data::CountClass(dataset.ground_truth[i],
                                      tasti::data::ObjectClass::kCar));
  }
  EXPECT_GE(NowNs() - start, 50 * 200'000);
  EXPECT_EQ(costly.invocations(), 50u);
  EXPECT_EQ(costly.num_records(), dataset.size());
  EXPECT_DOUBLE_EQ(costly.last_call_latency_ms(), 0.2);
}

TEST(CountingScorerTest, AgreesWithInnerCalls) {
  const tasti::data::Dataset dataset = SmallDataset();
  size_t inner_calls = 0;
  const tasti::core::LambdaScorer inner(
      [&inner_calls](const tasti::data::LabelerOutput& output) {
        ++inner_calls;
        return static_cast<double>(
            tasti::data::CountClass(output, tasti::data::ObjectClass::kCar));
      },
      /*categorical=*/false, "cars");
  CountingScorer scorer(&inner, /*timing=*/false);
  EXPECT_EQ(scorer.Name(), "cars");
  EXPECT_FALSE(scorer.categorical());
  double sum = 0.0;
  for (const auto& label : dataset.ground_truth) sum += scorer.Score(label);
  scorer.set_timing(true);
  for (const auto& label : dataset.ground_truth) sum -= scorer.Score(label);
  EXPECT_EQ(sum, 0.0);
  EXPECT_EQ(scorer.calls(), inner_calls);
  EXPECT_EQ(scorer.calls(), 2 * dataset.size());
  EXPECT_GT(scorer.busy_seconds(), 0.0);
}

}  // namespace
}  // namespace perfbench
