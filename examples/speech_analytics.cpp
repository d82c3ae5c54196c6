// Speech analytics: the Common Voice-style workload. Crowd workers
// annotate speaker gender and age; one TASTI index serves a demographic
// aggregation, a gender-selection query with a recall guarantee, and a
// rare-event limit query (elderly speakers).

#include <cstdio>

#include "core/index.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "data/dataset.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"
#include "queries/aggregation.h"
#include "queries/limit.h"
#include "queries/supg.h"
#include "util/stats.h"

int main() {
  using namespace tasti;

  data::DatasetOptions dataset_options;
  dataset_options.num_records = 10000;
  dataset_options.seed = 13;
  data::Dataset corpus = data::MakeCommonVoice(dataset_options);
  std::printf("dataset: %s (%zu snippets)\n", corpus.name.c_str(),
              corpus.size());

  // The simulated crowd enters the FallibleLabeler API through
  // FallibleAdapter; CachingFallibleLabeler charges each record once.
  labeler::SimulatedLabeler crowd(&corpus);
  labeler::FallibleAdapter adapter(&crowd);
  labeler::CachingFallibleLabeler cache(&adapter);
  core::IndexOptions index_options;
  index_options.num_training_records = 500;
  index_options.num_representatives = 500;
  core::TastiIndex index = core::TastiIndex::Build(corpus, &cache, index_options);
  std::printf("index: %zu crowd annotations\n\n", crowd.invocations());

  // --- Fraction of male speakers ---
  core::MaleScorer male;
  {
    auto proxy = core::ComputeProxyScores(index, male);
    labeler::SimulatedLabeler query_labeler(&corpus);
    labeler::FallibleAdapter query_oracle(&query_labeler);
    queries::AggregationOptions opts;
    opts.error_target = 0.03;
    queries::AggregationResult result =
        queries::TryEstimateMean(proxy, &query_oracle, male, opts).value();
    std::printf("[aggregation] male fraction = %.3f (truth %.3f), %zu "
                "annotations\n",
                result.estimate, Mean(core::ExactScores(corpus, male)),
                result.labeler_invocations);
  }

  // --- Select male speakers with 90% recall ---
  {
    auto proxy = core::ComputeProxyScores(index, male);
    labeler::SimulatedLabeler query_labeler(&corpus);
    labeler::FallibleAdapter query_oracle(&query_labeler);
    queries::SupgOptions opts;
    opts.recall_target = 0.9;
    opts.budget = 400;
    queries::SupgResult result =
        queries::TrySupgRecallSelect(proxy, &query_oracle, male, opts).value();
    const auto truth = core::ExactScores(corpus, male);
    std::printf("[selection]  %zu snippets returned; recall %.3f, FPR %.3f\n",
                result.selected.size(),
                queries::AchievedRecall(result.selected, truth),
                queries::FalsePositiveRate(result.selected, truth));
  }

  // --- Find 10 speakers aged 70+ (rare event) ---
  core::LambdaScorer elderly(
      [](const data::LabelerOutput& output) {
        const auto* speech = std::get_if<data::SpeechLabel>(&output);
        return (speech != nullptr && speech->age_years >= 70) ? 1.0 : 0.0;
      },
      /*categorical=*/true, "age>=70");
  {
    auto ranking =
        core::ComputeProxyScores(index, elderly, core::PropagationMode::kLimit);
    labeler::SimulatedLabeler query_labeler(&corpus);
    labeler::FallibleAdapter query_oracle(&query_labeler);
    queries::LimitOptions opts;
    opts.want = 10;
    queries::LimitResult result =
        queries::TryLimitQuery(ranking, &query_oracle, elderly, opts).value();
    std::printf("[limit]      found %zu/10 elderly speakers after %zu "
                "annotations (of %zu snippets)\n",
                result.found.size(), result.labeler_invocations, corpus.size());
  }
  return 0;
}
