// Text analytics: the WikiSQL-style workload. Crowd workers (the target
// labeler) annotate natural-language questions with the SQL operator and
// predicate count; a TASTI index answers aggregation and selection
// queries over those annotations with a small labeling budget.

#include <cstdio>

#include "core/index.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "data/dataset.h"
#include "labeler/cost_model.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"
#include "queries/aggregation.h"
#include "queries/supg.h"
#include "util/stats.h"

int main() {
  using namespace tasti;

  data::DatasetOptions dataset_options;
  dataset_options.num_records = 10000;
  dataset_options.seed = 11;
  data::Dataset corpus = data::MakeWikiSql(dataset_options);
  std::printf("dataset: %s (%zu questions)\n", corpus.name.c_str(),
              corpus.size());

  // Crowd workers cost real money: track what the index costs to build.
  // The simulated crowd enters the FallibleLabeler API through
  // FallibleAdapter.
  labeler::SimulatedLabeler crowd(&corpus);
  labeler::FallibleAdapter adapter(&crowd);
  labeler::CachingFallibleLabeler cache(&adapter);
  core::IndexOptions index_options;
  index_options.num_training_records = 500;  // the paper's WikiSQL setting
  index_options.num_representatives = 500;
  core::TastiIndex index = core::TastiIndex::Build(corpus, &cache, index_options);

  labeler::CostModel cost;
  std::printf("index: %zu crowd annotations (~%s at $%.2f each)\n\n",
              crowd.invocations(),
              ("$" + std::to_string(static_cast<int>(
                         crowd.invocations() * cost.human_dollars_per_label)))
                  .c_str(),
              cost.human_dollars_per_label);

  // --- Average number of predicates per question ---
  core::PredicateCountScorer predicates;
  {
    auto proxy = core::ComputeProxyScores(index, predicates);
    labeler::SimulatedLabeler query_labeler(&corpus);
    labeler::FallibleAdapter query_oracle(&query_labeler);
    queries::AggregationOptions opts;
    opts.error_target = 0.04;
    queries::AggregationResult result =
        queries::TryEstimateMean(proxy, &query_oracle, predicates, opts)
            .value();
    std::printf("[aggregation] avg predicates/question = %.3f (truth %.3f), "
                "%zu annotations\n",
                result.estimate, Mean(core::ExactScores(corpus, predicates)),
                result.labeler_invocations);
  }

  // --- Select questions that parse to plain SELECT, 90% recall ---
  core::SqlOpScorer is_select(data::SqlOp::kSelect);
  {
    auto proxy = core::ComputeProxyScores(index, is_select);
    labeler::SimulatedLabeler query_labeler(&corpus);
    labeler::FallibleAdapter query_oracle(&query_labeler);
    queries::SupgOptions opts;
    opts.recall_target = 0.9;
    opts.budget = 400;
    queries::SupgResult result =
        queries::TrySupgRecallSelect(proxy, &query_oracle, is_select, opts)
            .value();
    const auto truth = core::ExactScores(corpus, is_select);
    std::printf("[selection]  %zu questions returned; recall %.3f, FPR "
                "%.3f, %zu annotations\n",
                result.selected.size(),
                queries::AchievedRecall(result.selected, truth),
                queries::FalsePositiveRate(result.selected, truth),
                result.labeler_invocations);
  }

  // --- A second aggregation reusing the same index: fraction of MAX/MIN ---
  core::LambdaScorer is_extremal(
      [](const data::LabelerOutput& output) {
        const auto* text = std::get_if<data::TextLabel>(&output);
        return (text != nullptr && (text->op == data::SqlOp::kMax ||
                                    text->op == data::SqlOp::kMin))
                   ? 1.0
                   : 0.0;
      },
      /*categorical=*/true, "op in {MAX, MIN}");
  {
    auto proxy = core::ComputeProxyScores(index, is_extremal);
    std::printf("[custom]     fraction of MAX/MIN questions = %.3f (truth "
                "%.3f), 0 extra annotations\n",
                Mean(proxy), Mean(core::ExactScores(corpus, is_extremal)));
  }
  return 0;
}
