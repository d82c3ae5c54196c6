// Table 2: queries without statistical guarantees on night-street —
// direct aggregation from proxy scores (percent error) and threshold
// selection (100 - F1).
//
// Paper result: TASTI 3.3% error vs BlazeIt 4.4% (aggregation);
// TASTI 5.5 vs NoScope 14.9 (100 - F1, selection).

#include <cstdio>

#include "bench_common.h"
#include "core/proxy.h"
#include "eval/experiment.h"
#include "eval/reporting.h"
#include "queries/noguarantee.h"
#include "util/stats.h"
#include "util/table.h"

using namespace tasti;

int main() {
  eval::PrintBanner(
      "Table 2: queries without statistical guarantees, night-street "
      "(lower is better)");
  eval::PrintPaperReference(
      "agg %err: TASTI 3.3 vs BlazeIt 4.4; selection 100-F1: TASTI 5.5 vs "
      "NoScope 14.9");

  eval::ExperimentConfig config = eval::ExperimentConfig::FromEnv();
  eval::Workbench bench(data::DatasetId::kNightStreet, config);

  TablePrinter table({"method", "query", "quality metric", "value"});

  // Aggregation: direct estimate from the proxy scores.
  core::CountScorer agg(data::ObjectClass::kCar);
  const double truth = Mean(core::ExactScores(bench.dataset(), agg));
  const double tasti_est = queries::DirectAggregate(bench.TastiScores(agg, true));
  const double blazeit_est =
      queries::DirectAggregate(bench.PerQueryProxy(agg, 111).scores);
  table.AddRow({"TASTI", "Agg.", "percent error",
                FmtPercent(queries::PercentError(tasti_est, truth))});
  table.AddRow({"BlazeIt (per-query)", "Agg.", "percent error",
                FmtPercent(queries::PercentError(blazeit_est, truth))});

  // Selection: threshold fitted on a labeled validation sample, using the
  // standard (multi-car) selection predicate of the night-street suite.
  core::AtLeastCountScorer sel(data::ObjectClass::kCar, 2);
  const std::vector<double> sel_truth = core::ExactScores(bench.dataset(), sel);
  auto run_selection = [&](const std::vector<double>& proxy, uint64_t seed) {
    return bench::MeanOverTrials(
        [&](uint64_t trial_seed) {
          auto oracle = bench.MakeOracle();
          labeler::FallibleAdapter adapter(oracle.get());
          queries::ThresholdSelectOptions opts;
          opts.validation_budget = 300;
          opts.seed = trial_seed;
          queries::ThresholdSelectResult result =
              queries::TryThresholdSelect(proxy, &adapter, sel, opts).value();
          return 100.0 * (1.0 - queries::F1Score(result.selected, sel_truth));
        },
        seed);
  };
  table.AddRow({"TASTI", "Selection", "100 - F1",
                Fmt(run_selection(bench.TastiScores(sel, true), 112), 1)});
  table.AddRow(
      {"NoScope (per-query)", "Selection", "100 - F1",
       Fmt(run_selection(bench.PerQueryProxy(sel, 113).scores, 114), 1)});

  eval::PrintTable(table);
  eval::PrintTakeaway("TASTI's proxy scores are higher quality on both query "
                      "types, as in the paper");
  return 0;
}
