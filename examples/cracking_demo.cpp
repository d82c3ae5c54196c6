// Cracking demo (paper Section 3.3): target-labeler outputs produced
// while answering queries are folded back into the index as new cluster
// representatives, so the index keeps improving as it is used. This demo
// also persists the cracked index to disk and reloads it.

#include <cstdio>

#include "core/index.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "core/serialize.h"
#include "data/dataset.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"
#include "queries/aggregation.h"
#include "util/stats.h"

int main() {
  using namespace tasti;

  data::DatasetOptions dataset_options;
  dataset_options.num_records = 20000;
  dataset_options.seed = 9;
  data::Dataset video = data::MakeNightStreet(dataset_options);

  // Deliberately small index: plenty of headroom for cracking to help.
  // Each query labels through a CachingFallibleLabeler, whose labels
  // TastiIndex::CrackFrom folds back into the index.
  labeler::SimulatedLabeler simulated(&video);
  labeler::FallibleAdapter oracle(&simulated);
  labeler::CachingFallibleLabeler build_cache(&oracle);
  core::IndexOptions index_options;
  index_options.num_training_records = 500;
  index_options.num_representatives = 500;
  core::TastiIndex index =
      core::TastiIndex::Build(video, &build_cache, index_options);

  core::CountScorer count_cars(data::ObjectClass::kCar);
  const auto truth = core::ExactScores(video, count_cars);

  auto report = [&](const char* stage) {
    auto proxy = core::ComputeProxyScores(index, count_cars);
    std::printf("%-22s reps=%5zu  proxy/truth correlation=%.4f\n", stage,
                index.num_representatives(), PearsonCorrelation(proxy, truth));
  };
  report("initial index:");

  // Run three aggregation queries; after each, crack the index with the
  // records the query labeled.
  for (int round = 1; round <= 3; ++round) {
    labeler::SimulatedLabeler query_labeler(&video);
    labeler::FallibleAdapter query_oracle(&query_labeler);
    labeler::CachingFallibleLabeler query_cache(&query_oracle);
    auto proxy = core::ComputeProxyScores(index, count_cars);
    queries::AggregationOptions opts;
    opts.error_target = 0.05;
    opts.seed = 1000 + round;
    queries::AggregationResult result =
        queries::TryEstimateMean(proxy, &query_cache, count_cars, opts).value();
    const size_t added = index.CrackFrom(query_cache);
    std::printf("query %d: estimate %.4f with %zu labeler calls -> cracked "
                "%zu new representatives\n",
                round, result.estimate, result.labeler_invocations, added);
    report("after cracking:");
  }

  // Persist and reload: cracked state survives.
  const std::string path = "/tmp/tasti_cracked_index.bin";
  Status save_status = core::IndexSerializer::Save(index, path);
  if (!save_status.ok()) {
    std::printf("save failed: %s\n", save_status.ToString().c_str());
    return 1;
  }
  Result<core::TastiIndex> loaded = core::IndexSerializer::Load(path);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("reloaded index from %s: %zu representatives\n", path.c_str(),
              loaded->num_representatives());
  std::remove(path.c_str());
  return 0;
}
