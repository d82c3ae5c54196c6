// Video analytics: one TASTI index over a two-class camera (taipei-like)
// serving three different query types — aggregation, selection with a
// recall guarantee (SUPG), and a limit query for rare events — plus a
// custom scorer, all without per-query model training.

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
  dataset_options.num_records = 20000;
  dataset_options.seed = 7;
  data::Dataset video = data::MakeTaipei(dataset_options);
  std::printf("dataset: %s (%zu frames, classes: car, bus)\n",
              video.name.c_str(), video.size());

  // The index build and every query take a labeler::FallibleLabeler;
  // FallibleAdapter wraps the never-failing simulator as one, and each
  // query's Result is unwrapped with value().
  labeler::SimulatedLabeler oracle(&video);
  labeler::FallibleAdapter adapter(&oracle);
  labeler::CachingFallibleLabeler cache(&adapter);
  core::IndexOptions index_options;
  index_options.num_training_records = 1000;
  index_options.num_representatives = 2000;
  core::TastiIndex index = core::TastiIndex::Build(video, &cache, index_options);
  std::printf("index built with %zu labeler calls (shared by ALL queries "
              "below)\n\n", oracle.invocations());

  // --- Query 1: average buses per frame (aggregation) ---
  core::CountScorer count_buses(data::ObjectClass::kBus);
  {
    auto proxy = core::ComputeProxyScores(index, count_buses);
    labeler::SimulatedLabeler query_labeler(&video);
    labeler::FallibleAdapter query_oracle(&query_labeler);
    queries::AggregationOptions opts;
    opts.error_target = 0.03;
    queries::AggregationResult result =
        queries::TryEstimateMean(proxy, &query_oracle, count_buses, opts)
            .value();
    std::printf("[aggregation] avg buses/frame = %.4f (truth %.4f), %zu "
                "labeler calls\n",
                result.estimate, Mean(core::ExactScores(video, count_buses)),
                result.labeler_invocations);
  }

  // --- Query 2: select 90% of frames with buses, 95% confidence (SUPG) ---
  core::PresenceScorer has_bus(data::ObjectClass::kBus);
  {
    auto proxy = core::ComputeProxyScores(index, has_bus);
    labeler::SimulatedLabeler query_labeler(&video);
    labeler::FallibleAdapter query_oracle(&query_labeler);
    queries::SupgOptions opts;
    opts.recall_target = 0.9;
    opts.confidence = 0.95;
    opts.budget = 500;
    queries::SupgResult result =
        queries::TrySupgRecallSelect(proxy, &query_oracle, has_bus, opts)
            .value();
    const auto truth = core::ExactScores(video, has_bus);
    std::printf("[selection]  %zu frames returned; recall %.3f, FPR %.3f, "
                "%zu labeler calls\n",
                result.selected.size(),
                queries::AchievedRecall(result.selected, truth),
                queries::FalsePositiveRate(result.selected, truth),
                result.labeler_invocations);
  }

  // --- Query 3: find 10 frames with >= 3 cars (limit query) ---
  core::AtLeastCountScorer busy(data::ObjectClass::kCar, 3);
  {
    auto ranking = core::ComputeProxyScores(index, busy,
                                            core::PropagationMode::kLimit);
    labeler::SimulatedLabeler query_labeler(&video);
    labeler::FallibleAdapter query_oracle(&query_labeler);
    queries::LimitOptions opts;
    opts.want = 10;
    queries::LimitResult result =
        queries::TryLimitQuery(ranking, &query_oracle, busy, opts).value();
    std::printf("[limit]      found %zu/10 busy frames after %zu labeler "
                "calls (of %zu frames)\n",
                result.found.size(), result.labeler_invocations, video.size());
  }

  // --- Query 4: a custom scorer (paper Section 4.2) — total vehicle area ---
  core::LambdaScorer vehicle_area(
      [](const data::LabelerOutput& output) {
        const auto* frame = std::get_if<data::VideoLabel>(&output);
        if (frame == nullptr) return 0.0;
        double area = 0.0;
        for (const data::Box& box : frame->boxes) area += box.w * box.h;
        return area;
      },
      /*categorical=*/false, "total_vehicle_area");
  {
    auto proxy = core::ComputeProxyScores(index, vehicle_area);
    const double estimate = Mean(proxy);
    const double truth = Mean(core::ExactScores(video, vehicle_area));
    std::printf("[custom]     mean vehicle area/frame = %.5f (truth %.5f), "
                "0 extra labeler calls\n",
                estimate, truth);
  }
  return 0;
}
