#ifndef TASTI_BENCH_BENCH_COMMON_H_
#define TASTI_BENCH_BENCH_COMMON_H_

/// \file bench_common.h
/// Helpers shared by the figure/table benches: trial averaging and the
/// per-dataset aggregation error targets used throughout.
///
/// Absolute error targets from the paper (0.01 on ~1M-frame videos) do not
/// transfer to 20k-record simulations — they would force exhaustive
/// labeling — so each bench uses a target in the same *relative* regime:
/// small enough that sampling dominates, large enough that every method
/// converges before exhausting the dataset.

#include <functional>
#include <vector>

#include "data/dataset.h"
#include "eval/experiment.h"
#include "queries/aggregation.h"
#include "util/stats.h"

namespace tasti::bench {

/// Aggregation error target for a dataset's default statistic.
inline double AggErrorTargetFor(data::DatasetId id) {
  switch (id) {
    case data::DatasetId::kWikiSql:
      return 0.06;  // predicates/statement, mean ~1.7
    case data::DatasetId::kCommonVoice:
      return 0.04;  // male fraction, mean ~0.7
    default:
      return 0.07;  // objects/frame, mean ~0.5-1
  }
}

/// Number of trials each randomized query is averaged over.
inline constexpr int kTrials = 5;

/// Runs `trial(seed)` kTrials times and returns the mean of the returned
/// metric.
inline double MeanOverTrials(const std::function<double(uint64_t)>& trial,
                             uint64_t base_seed = 1000) {
  RunningStats stats;
  for (int t = 0; t < kTrials; ++t) {
    stats.Add(trial(base_seed + static_cast<uint64_t>(t) * 17));
  }
  return stats.mean();
}

/// Mean labeler invocations of EBS aggregation with the given proxies.
inline double MeanAggInvocations(eval::Workbench* bench,
                                 const std::vector<double>& proxy,
                                 const core::Scorer& scorer,
                                 double error_target, uint64_t base_seed) {
  return MeanOverTrials(
      [&](uint64_t seed) {
        auto oracle = bench->MakeOracle();
        labeler::FallibleAdapter adapter(oracle.get());
        queries::AggregationOptions opts;
        opts.error_target = error_target;
        opts.seed = seed;
        return static_cast<double>(
            queries::TryEstimateMean(proxy, &adapter, scorer, opts)
                .value()
                .labeler_invocations);
      },
      base_seed);
}

}  // namespace tasti::bench

#endif  // TASTI_BENCH_BENCH_COMMON_H_
