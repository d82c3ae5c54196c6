// Figure 11: sensitivity to the number of cluster representatives
// ("buckets"), night-street, aggregation + limit queries, with the
// per-query proxy baseline as a flat reference line.
//
// Paper result: performance improves with more buckets; TASTI beats the
// baseline with as few as 50 buckets for aggregation and ~5,000 (of ~1M
// frames) for limit queries.

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
      "Figure 11: number of buckets (representatives) vs performance, "
      "night-street");
  eval::PrintPaperReference(
      "TASTI improves with more buckets; beats baselines from 50 buckets "
      "(agg) / mid-range (limit)");

  eval::ExperimentConfig config = eval::ExperimentConfig::FromEnv();
  eval::Workbench bench(data::DatasetId::kNightStreet, config);
  const double target = bench::AggErrorTargetFor(bench.id());

  core::CountScorer agg_scorer(data::ObjectClass::kCar);
  core::AtLeastCountScorer limit_predicate(data::ObjectClass::kCar, 6);
  queries::LimitOptions limit_opts;
  limit_opts.want = 10;

  TablePrinter table({"method", "buckets", "aggregation calls", "limit calls"});

  // Per-query proxy reference (bucket count does not apply).
  {
    const auto pq_agg = bench.PerQueryProxy(agg_scorer, 91);
    const double agg = bench::MeanAggInvocations(&bench, pq_agg.scores,
                                                 agg_scorer, target, 910);
    const auto pq_limit = bench.PerQueryProxy(limit_predicate, 92);
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

  for (size_t buckets : {50, 500, 1000, 2000, 3000, 4000}) {
    core::IndexOptions opts = bench.BaseIndexOptions();
    opts.num_representatives = buckets;
    labeler::SimulatedLabeler oracle(&bench.dataset());
    labeler::FallibleAdapter adapter(&oracle);
    labeler::CachingFallibleLabeler cache(&adapter);
    core::TastiIndex index =
        core::TastiIndex::Build(bench.dataset(), &cache, opts);

    const auto agg_proxy = core::ComputeProxyScores(index, agg_scorer);
    const double agg = bench::MeanAggInvocations(&bench, agg_proxy, agg_scorer,
                                                 target, 920 + buckets);
    const auto limit_proxy = core::ComputeProxyScores(
        index, limit_predicate, core::PropagationMode::kLimit);
    auto limit_oracle = bench.MakeOracle();
    labeler::FallibleAdapter limit_adapter(limit_oracle.get());
    const size_t limit =
        queries::TryLimitQuery(limit_proxy, &limit_adapter, limit_predicate,
                               limit_opts)
            .value()
            .labeler_invocations;
    table.AddRow({"TASTI-T", FmtCount(static_cast<long long>(buckets)),
                  FmtCount(static_cast<long long>(agg)),
                  FmtCount(static_cast<long long>(limit))});
  }
  eval::PrintTable(table);
  eval::PrintTakeaway(
      "aggregation is competitive even with very few buckets; limit "
      "queries need enough buckets to cover the rare tail");
  return 0;
}
