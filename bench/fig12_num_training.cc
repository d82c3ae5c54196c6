// Figure 12: sensitivity to the number of triplet-training examples,
// night-street, aggregation + limit queries.
//
// Paper result: TASTI is insensitive to the training budget across
// 1,000-5,000 examples and beats the per-query baseline everywhere.

#include <cstdio>

#include "bench_common.h"
#include "core/index.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "eval/experiment.h"
#include "eval/reporting.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"
#include "queries/limit.h"
#include "util/table.h"

using namespace tasti;

int main() {
  eval::PrintBanner(
      "Figure 12: number of training examples vs performance, night-street");
  eval::PrintPaperReference(
      "performance is stable across 1k-5k training examples; TASTI beats "
      "baselines throughout");

  eval::ExperimentConfig config = eval::ExperimentConfig::FromEnv();
  eval::Workbench bench(data::DatasetId::kNightStreet, config);
  const double target = bench::AggErrorTargetFor(bench.id());

  core::CountScorer agg_scorer(data::ObjectClass::kCar);
  core::AtLeastCountScorer limit_predicate(data::ObjectClass::kCar, 6);
  queries::LimitOptions limit_opts;
  limit_opts.want = 10;

  TablePrinter table(
      {"method", "training examples", "aggregation calls", "limit calls"});

  {
    const auto pq_agg = bench.PerQueryProxy(agg_scorer, 93);
    const double agg = bench::MeanAggInvocations(&bench, pq_agg.scores,
                                                 agg_scorer, target, 930);
    const auto pq_limit = bench.PerQueryProxy(limit_predicate, 94);
    auto oracle = bench.MakeOracle();
    labeler::FallibleAdapter adapter(oracle.get());
    const size_t limit =
        queries::TryLimitQuery(pq_limit.scores, &adapter, limit_predicate,
                               limit_opts)
            .value()
            .labeler_invocations;
    table.AddRow({"Per-query proxy", "-", FmtCount(static_cast<long long>(agg)),
                  FmtCount(static_cast<long long>(limit))});
  }

  for (size_t training : {750, 1000, 1250, 1500, 2000}) {
    // Two independent index builds per row: limit-query cost at one seed
    // depends on whether this build's representatives covered the tail.
    double agg_total = 0.0, limit_total = 0.0;
    const int index_seeds = 2;
    for (int trial = 0; trial < index_seeds; ++trial) {
      core::IndexOptions opts = bench.BaseIndexOptions();
      opts.num_training_records = training;
      opts.seed += static_cast<uint64_t>(trial) * 977;
      labeler::SimulatedLabeler oracle(&bench.dataset());
      labeler::FallibleAdapter adapter(&oracle);
      labeler::CachingFallibleLabeler cache(&adapter);
      core::TastiIndex index =
          core::TastiIndex::Build(bench.dataset(), &cache, opts);

      const auto agg_proxy = core::ComputeProxyScores(index, agg_scorer);
      agg_total += bench::MeanAggInvocations(&bench, agg_proxy, agg_scorer,
                                             target, 940 + training + trial);
      const auto limit_proxy = core::ComputeProxyScores(
          index, limit_predicate, core::PropagationMode::kLimit);
      auto limit_oracle = bench.MakeOracle();
      labeler::FallibleAdapter limit_adapter(limit_oracle.get());
      limit_total += static_cast<double>(
          queries::TryLimitQuery(limit_proxy, &limit_adapter, limit_predicate,
                                 limit_opts)
              .value()
              .labeler_invocations);
    }
    table.AddRow({"TASTI-T", FmtCount(static_cast<long long>(training)),
                  FmtCount(static_cast<long long>(agg_total / index_seeds)),
                  FmtCount(static_cast<long long>(limit_total / index_seeds))});
  }
  eval::PrintTable(table);
  eval::PrintTakeaway("TASTI is not sensitive to the training budget");
  return 0;
}
