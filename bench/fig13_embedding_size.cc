// Figure 13: sensitivity to the embedding dimensionality, night-street,
// aggregation + limit queries.
//
// Paper result: TASTI beats per-query proxies across embedding sizes
// 32-512; size is not a sensitive hyperparameter.

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
      "Figure 13: embedding dimensionality vs performance, night-street");
  eval::PrintPaperReference(
      "TASTI beats per-query proxies across embedding sizes 32-512");

  eval::ExperimentConfig config = eval::ExperimentConfig::FromEnv();
  eval::Workbench bench(data::DatasetId::kNightStreet, config);
  const double target = bench::AggErrorTargetFor(bench.id());

  core::CountScorer agg_scorer(data::ObjectClass::kCar);
  core::AtLeastCountScorer limit_predicate(data::ObjectClass::kCar, 6);
  queries::LimitOptions limit_opts;
  limit_opts.want = 10;

  TablePrinter table(
      {"method", "embedding dim", "aggregation calls", "limit calls"});

  {
    const auto pq_agg = bench.PerQueryProxy(agg_scorer, 95);
    const double agg = bench::MeanAggInvocations(&bench, pq_agg.scores,
                                                 agg_scorer, target, 950);
    const auto pq_limit = bench.PerQueryProxy(limit_predicate, 96);
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

  for (size_t dim : {16, 32, 64, 128, 256}) {
    core::IndexOptions opts = bench.BaseIndexOptions();
    opts.embedding_dim = dim;
    labeler::SimulatedLabeler oracle(&bench.dataset());
    labeler::FallibleAdapter adapter(&oracle);
    labeler::CachingFallibleLabeler cache(&adapter);
    core::TastiIndex index =
        core::TastiIndex::Build(bench.dataset(), &cache, opts);

    const auto agg_proxy = core::ComputeProxyScores(index, agg_scorer);
    const double agg = bench::MeanAggInvocations(&bench, agg_proxy, agg_scorer,
                                                 target, 960 + dim);
    const auto limit_proxy = core::ComputeProxyScores(
        index, limit_predicate, core::PropagationMode::kLimit);
    auto limit_oracle = bench.MakeOracle();
    labeler::FallibleAdapter limit_adapter(limit_oracle.get());
    const size_t limit =
        queries::TryLimitQuery(limit_proxy, &limit_adapter, limit_predicate,
                               limit_opts)
            .value()
            .labeler_invocations;
    table.AddRow({"TASTI-T", FmtCount(static_cast<long long>(dim)),
                  FmtCount(static_cast<long long>(agg)),
                  FmtCount(static_cast<long long>(limit))});
  }
  eval::PrintTable(table);
  eval::PrintTakeaway("embedding size is not a sensitive hyperparameter");
  return 0;
}
