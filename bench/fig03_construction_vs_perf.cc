// Figure 3: index construction cost vs aggregation query performance on
// night-street.
//
// BlazeIt's frontier: larger TMAS -> better per-query proxy -> fewer
// query-time labeler invocations. TASTI's frontier: more representatives
// -> better propagated scores. Paper result: TASTI matches or beats
// BlazeIt's query performance with up to 10x cheaper construction.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "baselines/per_query_proxy.h"
#include "core/index.h"
#include "core/proxy.h"
#include "eval/experiment.h"
#include "eval/reporting.h"
#include "labeler/cost_model.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"
#include "util/table.h"

using namespace tasti;

int main() {
  eval::PrintBanner(
      "Figure 3: construction cost vs aggregation performance, night-street");
  eval::PrintPaperReference(
      "TASTI matches/beats BlazeIt query performance at up to 10x lower "
      "construction cost");

  eval::ExperimentConfig config = eval::ExperimentConfig::FromEnv();
  eval::Workbench bench(data::DatasetId::kNightStreet, config);
  const double error_target = bench::AggErrorTargetFor(bench.id());
  core::CountScorer scorer(data::ObjectClass::kCar);
  labeler::CostModel cost;

  TablePrinter table({"system", "construction labels", "construction s",
                      "query labeler calls"});

  // BlazeIt frontier: per-query proxies trained on growing TMAS sizes.
  for (size_t tmas : {1000, 2000, 4000, 8000, 16000}) {
    labeler::SimulatedLabeler oracle(&bench.dataset());
    baselines::ProxyTrainOptions proxy_opts;
    proxy_opts.num_training_records = tmas;
    proxy_opts.seed = 99 + tmas;
    baselines::PerQueryProxyResult proxy = baselines::TrainPerQueryProxy(
        bench.dataset().features, &oracle, scorer, proxy_opts);
    const double invocations = bench::MeanAggInvocations(
        &bench, proxy.scores, scorer, error_target, 2000 + tmas);
    table.AddRow({"BlazeIt", FmtCount(static_cast<long long>(tmas)),
                  Fmt(tmas * cost.mask_rcnn_seconds_per_label, 0),
                  FmtCount(static_cast<long long>(invocations))});
  }

  // TASTI frontier: growing representative counts (one trained embedding).
  for (size_t reps : {250, 500, 1000, 2000, 4000}) {
    core::IndexOptions opts = bench.BaseIndexOptions();
    opts.num_representatives = reps;
    labeler::SimulatedLabeler oracle(&bench.dataset());
    labeler::FallibleAdapter adapter(&oracle);
    labeler::CachingFallibleLabeler cache(&adapter);
    core::TastiIndex index = core::TastiIndex::Build(bench.dataset(), &cache, opts);
    const std::vector<double> proxy = core::ComputeProxyScores(index, scorer);
    const double invocations = bench::MeanAggInvocations(
        &bench, proxy, scorer, error_target, 3000 + reps);
    const size_t labels = oracle.invocations();
    table.AddRow({"TASTI-T", FmtCount(static_cast<long long>(labels)),
                  Fmt(labels * cost.mask_rcnn_seconds_per_label +
                          index.build_stats().TotalSeconds(),
                      0),
                  FmtCount(static_cast<long long>(invocations))});
  }
  eval::PrintTable(table);
  eval::PrintTakeaway(
      "TASTI rows reach BlazeIt's best query performance with a fraction of "
      "the construction labels");
  return 0;
}
