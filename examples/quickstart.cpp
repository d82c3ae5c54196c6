// Quickstart: build a TASTI index over a (simulated) traffic-camera video
// and answer an aggregation query with it.
//
//   1. materialize a dataset (ground truth stays behind the labeler),
//   2. build the index (Algorithm 1) under a labeler budget; every
//      algorithm takes a FallibleLabeler, and FallibleAdapter turns the
//      simulated labeler into one,
//   3. generate proxy scores for "count the cars per frame",
//   4. run BlazeIt-style approximate aggregation with an error guarantee.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
//
// Pass --trace=out.json to export a Chrome trace of the construction and
// query phases (load it in Perfetto).

#include <cstring>
#include <string>

#include "core/index.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "data/dataset.h"
#include "eval/reporting.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"
#include "obs/config.h"
#include "obs/trace.h"
#include "queries/aggregation.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace tasti;

  // Optional trace output (--trace=PATH).
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_path = argv[i] + 8;
  }
  if (!trace_path.empty()) obs::SetTracingEnabled(true);

  // 1. A 20,000-frame simulated video (night-street-like workload).
  data::DatasetOptions dataset_options;
  dataset_options.num_records = 20000;
  dataset_options.seed = 42;
  data::Dataset video = data::MakeNightStreet(dataset_options);
  eval::Diag("dataset: %s, %zu frames, %zu-dim features", video.name.c_str(),
             video.size(), video.feature_dim());

  // 2. Build the index. The CachingFallibleLabeler deduplicates
  //    annotations so overlapping training/representative records are
  //    charged once.
  labeler::SimulatedLabeler mask_rcnn(&video);  // the expensive oracle
  labeler::FallibleAdapter oracle(&mask_rcnn);
  labeler::CachingFallibleLabeler cache(&oracle);

  core::IndexOptions index_options;
  index_options.num_training_records = 1000;  // N1
  index_options.num_representatives = 2000;   // N2
  index_options.k = 5;
  core::TastiIndex index = core::TastiIndex::Build(video, &cache, index_options);
  eval::Diag("index: %zu representatives, %zu labeler calls, %.1fs compute",
             index.num_representatives(), mask_rcnn.invocations(),
             index.build_stats().TotalSeconds());

  // 3. Proxy scores for a car-counting query — no per-query model training.
  core::CountScorer count_cars(data::ObjectClass::kCar);
  std::vector<double> proxy = core::ComputeProxyScores(index, count_cars);

  // 4. Approximate aggregation: average cars per frame, within 0.05 with
  //    95% probability.
  //    Try* returns a Result; value() aborts on error, which the
  //    never-failing simulated labeler cannot produce.
  labeler::SimulatedLabeler query_labeler(&video);
  labeler::FallibleAdapter query_oracle(&query_labeler);
  queries::AggregationOptions agg_options;
  agg_options.error_target = 0.05;
  agg_options.confidence = 0.95;
  queries::AggregationResult result =
      queries::TryEstimateMean(proxy, &query_oracle, count_cars, agg_options)
          .value();

  const double truth = Mean(core::ExactScores(video, count_cars));
  eval::PrintTakeaway("estimate " + std::to_string(result.estimate) +
                      " cars/frame (truth " + std::to_string(truth) +
                      ") using " + std::to_string(result.labeler_invocations) +
                      " labeler calls of " + std::to_string(video.size()) +
                      " frames");
  eval::Diag("proxy/labeler correlation on the sample: %.3f",
             result.proxy_correlation);

  if (!trace_path.empty()) {
    const Status status = obs::TraceRecorder::Global().WriteJson(trace_path);
    if (!status.ok()) {
      eval::Diag("trace write failed: %s", status.ToString().c_str());
      return 1;
    }
    eval::Diag("wrote trace (%zu events) to %s",
               obs::TraceRecorder::Global().event_count(), trace_path.c_str());
  }
  return 0;
}
