// Table 3: index cracking — running one query, folding the target-labeler
// annotations it produced back into the index as new representatives, and
// measuring a second query.
//
// Paper result (night-street / taipei): cracking improves both the
// SUPG-after-aggregation and aggregation-after-SUPG orders, e.g.
// night-street agg->SUPG FPR 8.6% -> 4.9%, SUPG->agg 21.2k -> 18.9k.

#include <cstdio>

#include "bench_common.h"
#include "core/index.h"
#include "core/proxy.h"
#include "eval/experiment.h"
#include "eval/reporting.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"
#include "queries/supg.h"
#include "util/table.h"

using namespace tasti;

namespace {

// Builds a fresh index for the dataset (smaller than the default so that
// cracking has headroom, mirroring the paper's repeated-query setting).
core::TastiIndex BuildIndex(eval::Workbench* bench) {
  core::IndexOptions opts = bench->BaseIndexOptions();
  opts.num_representatives = opts.num_representatives / 2;
  labeler::SimulatedLabeler oracle(&bench->dataset());
  labeler::FallibleAdapter adapter(&oracle);
  labeler::CachingFallibleLabeler cache(&adapter);
  return core::TastiIndex::Build(bench->dataset(), &cache, opts);
}

double RunSupgFpr(eval::Workbench* bench, const core::TastiIndex& index,
                  const core::Scorer& predicate,
                  labeler::CachingFallibleLabeler* cache, uint64_t seed) {
  const auto proxy = core::ComputeProxyScores(index, predicate);
  const auto truth = core::ExactScores(bench->dataset(), predicate);
  queries::SupgOptions opts;
  opts.budget = bench->dataset().size() / 40;
  opts.seed = seed;
  queries::SupgResult result =
      queries::TrySupgRecallSelect(proxy, cache, predicate, opts).value();
  return queries::FalsePositiveRate(result.selected, truth);
}

double RunAggCalls(eval::Workbench* bench, const core::TastiIndex& index,
                   const core::Scorer& scorer,
                   labeler::CachingFallibleLabeler* cache, uint64_t seed) {
  const auto proxy = core::ComputeProxyScores(index, scorer);
  queries::AggregationOptions opts;
  opts.error_target = bench::AggErrorTargetFor(bench->id());
  opts.seed = seed;
  return static_cast<double>(
      queries::TryEstimateMean(proxy, cache, scorer, opts)
          .value()
          .labeler_invocations);
}

}  // namespace

int main() {
  eval::PrintBanner(
      "Table 3: cracking — query 2 performance before vs after folding "
      "query 1's labels into the index");
  eval::PrintPaperReference(
      "night-street: agg->SUPG FPR 8.6% -> 4.9%; SUPG->agg calls 21.2k -> "
      "18.9k (improves in all settings)");

  eval::ExperimentConfig config = eval::ExperimentConfig::FromEnv();
  TablePrinter table(
      {"dataset", "1st query", "2nd query", "before crack", "after crack"});

  for (data::DatasetId id :
       {data::DatasetId::kNightStreet, data::DatasetId::kTaipei}) {
    eval::Workbench bench(id, config);
    core::CountScorer agg(data::ObjectClass::kCar);
    core::AtLeastCountScorer sel(data::ObjectClass::kCar, 2);

    // agg -> SUPG: measure the SUPG query before and after cracking with
    // the aggregation query's labels.
    {
      core::TastiIndex index = BuildIndex(&bench);
      labeler::SimulatedLabeler oracle(&bench.dataset());
      labeler::FallibleAdapter probe_adapter(&oracle);
      labeler::CachingFallibleLabeler probe(&probe_adapter);
      const double before = RunSupgFpr(&bench, index, sel, &probe, 121);

      labeler::SimulatedLabeler oracle1(&bench.dataset());
      labeler::FallibleAdapter first_adapter(&oracle1);
      labeler::CachingFallibleLabeler first(&first_adapter);
      RunAggCalls(&bench, index, agg, &first, 122);
      index.CrackFrom(first);

      labeler::SimulatedLabeler oracle2(&bench.dataset());
      labeler::FallibleAdapter probe2_adapter(&oracle2);
      labeler::CachingFallibleLabeler probe2(&probe2_adapter);
      const double after = RunSupgFpr(&bench, index, sel, &probe2, 121);
      table.AddRow({bench.dataset().name, "Agg.", "SUPG", FmtPercent(before),
                    FmtPercent(after)});
    }

    // SUPG -> agg: measure the aggregation query before and after
    // cracking with the SUPG query's labels.
    {
      core::TastiIndex index = BuildIndex(&bench);
      labeler::SimulatedLabeler oracle(&bench.dataset());
      labeler::FallibleAdapter probe_adapter(&oracle);
      labeler::CachingFallibleLabeler probe(&probe_adapter);
      const double before = RunAggCalls(&bench, index, agg, &probe, 123);

      labeler::SimulatedLabeler oracle1(&bench.dataset());
      labeler::FallibleAdapter first_adapter(&oracle1);
      labeler::CachingFallibleLabeler first(&first_adapter);
      RunSupgFpr(&bench, index, sel, &first, 124);
      index.CrackFrom(first);

      labeler::SimulatedLabeler oracle2(&bench.dataset());
      labeler::FallibleAdapter probe2_adapter(&oracle2);
      labeler::CachingFallibleLabeler probe2(&probe2_adapter);
      const double after = RunAggCalls(&bench, index, agg, &probe2, 123);
      table.AddRow({bench.dataset().name, "SUPG", "Agg.",
                    FmtCount(static_cast<long long>(before)),
                    FmtCount(static_cast<long long>(after))});
    }
  }
  eval::PrintTable(table);
  eval::PrintTakeaway("cracking improves the second query in every setting");
  return 0;
}
