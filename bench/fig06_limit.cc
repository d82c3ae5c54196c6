// Figure 6: target labeler invocations for limit queries (find K records
// matching a rare predicate), across six panels and three methods.
//
// Paper result: TASTI improves limit queries by up to 24x (night-street:
// per-query 5,055 vs TASTI-T 473; amsterdam 16,056 vs 11). FPF mining and
// FPF clustering are what make rare events findable.

#include <cstdio>

#include "bench_common.h"
#include "core/proxy.h"
#include "eval/experiment.h"
#include "eval/reporting.h"
#include "queries/limit.h"
#include "util/table.h"

using namespace tasti;

int main() {
  eval::PrintBanner(
      "Figure 6: limit queries, labeler invocations to find K matches "
      "(lower is better)");
  eval::PrintPaperReference(
      "night-street: Per-query 5,055 | TASTI-PT 700 | TASTI-T 473; up to "
      "24x over per-query proxies (34x on amsterdam)");

  eval::ExperimentConfig config = eval::ExperimentConfig::FromEnv();
  TablePrinter table({"panel", "predicate", "matches", "Per-query proxy",
                      "TASTI-PT", "TASTI-T"});

  for (data::DatasetId id : data::AllDatasetIds()) {
    eval::Workbench bench(id, config);
    for (const eval::QuerySpec& spec : eval::DefaultQuerySpecs(id)) {
      const core::Scorer& predicate = *spec.limit_predicate;
      const std::vector<double> truth =
          core::ExactScores(bench.dataset(), predicate);
      size_t matches = 0;
      for (double v : truth) {
        if (v >= 0.5) ++matches;
      }
      if (matches < spec.limit_want) {
        table.AddRow({spec.label, predicate.Name(),
                      FmtCount(static_cast<long long>(matches)), "n/a", "n/a",
                      "n/a"});
        continue;
      }

      queries::LimitOptions opts;
      opts.want = spec.limit_want;
      auto run = [&](const std::vector<double>& scores) {
        auto oracle = bench.MakeOracle();
        labeler::FallibleAdapter adapter(oracle.get());
        return queries::TryLimitQuery(scores, &adapter, predicate, opts)
            .value()
            .labeler_invocations;
      };
      const size_t pq = run(bench.PerQueryProxy(predicate, 41).scores);
      const size_t pt = run(
          bench.TastiScores(predicate, false, core::PropagationMode::kLimit));
      const size_t t = run(
          bench.TastiScores(predicate, true, core::PropagationMode::kLimit));

      table.AddRow({spec.label, predicate.Name(),
                    FmtCount(static_cast<long long>(matches)),
                    FmtCount(static_cast<long long>(pq)),
                    FmtCount(static_cast<long long>(pt)),
                    FmtCount(static_cast<long long>(t))});
    }
  }
  eval::PrintTable(table);
  eval::PrintTakeaway(
      "TASTI-T examines the fewest records on every panel with enough rare "
      "events; FPF clustering places representatives on the rare tail");
  return 0;
}
