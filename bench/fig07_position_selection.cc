// Figure 7: SUPG selection of objects on the left-hand side of the frame
// (a position predicate), night-street and taipei.
//
// Paper result: the sharp positional discontinuity breaks per-query proxy
// models (FPR 80.9% / 93.4%) while TASTI handles it (35.1%/19.7% and
// 88.3%/71.0%) even though the query violates the Lipschitz assumption of
// the analysis.

#include <cstdio>

#include "bench_common.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "eval/experiment.h"
#include "eval/reporting.h"
#include "queries/supg.h"
#include "util/table.h"

using namespace tasti;

int main() {
  eval::PrintBanner(
      "Figure 7: SUPG selection by object position (left half of frame), FPR");
  eval::PrintPaperReference(
      "night-street: Per-query 80.9% | TASTI-PT 35.1% | TASTI-T 19.7%; "
      "taipei: 93.4% | 88.3% | 71.0%");

  eval::ExperimentConfig config = eval::ExperimentConfig::FromEnv();
  TablePrinter table({"panel", "Per-query proxy", "TASTI-PT", "TASTI-T"});

  for (data::DatasetId id :
       {data::DatasetId::kNightStreet, data::DatasetId::kTaipei}) {
    eval::Workbench bench(id, config);
    core::LeftPresenceScorer predicate(data::ObjectClass::kCar);
    const std::vector<double> truth =
        core::ExactScores(bench.dataset(), predicate);
    const size_t budget = bench.dataset().size() / 40;

    auto mean_fpr = [&](const std::vector<double>& proxy, uint64_t base_seed) {
      return bench::MeanOverTrials(
          [&](uint64_t seed) {
            auto oracle = bench.MakeOracle();
            labeler::FallibleAdapter adapter(oracle.get());
            queries::SupgOptions opts;
            opts.budget = budget;
            opts.seed = seed;
            queries::SupgResult result =
                queries::TrySupgRecallSelect(proxy, &adapter, predicate, opts)
                    .value();
            return queries::FalsePositiveRate(result.selected, truth);
          },
          base_seed);
    };

    const double pq = mean_fpr(bench.PerQueryProxy(predicate, 51).scores, 61);
    const double pt = mean_fpr(bench.TastiScores(predicate, false), 62);
    const double t = mean_fpr(bench.TastiScores(predicate, true), 63);
    table.AddRow({data::DatasetName(id), FmtPercent(pq), FmtPercent(pt),
                  FmtPercent(t)});
  }
  eval::PrintTable(table);
  eval::PrintTakeaway(
      "TASTI-T has the lowest FPR on the position predicate despite the "
      "Lipschitz violation, as in the paper");
  return 0;
}
