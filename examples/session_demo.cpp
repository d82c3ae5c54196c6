// Session demo: the high-level api::TastiSession facade (a one-worker
// TastiServer) running a mixed workload — the index is built lazily,
// cracked automatically after every query, and accounts every
// target-labeler invocation. Also demonstrates streaming ingestion of new
// footage into a copy of the session's index.

#include <cstdio>

#include "api/session.h"
#include "core/index_stats.h"
#include "core/proxy.h"
#include "core/serialize.h"
#include "data/dataset.h"
#include "eval/reporting.h"
#include "labeler/labeler.h"
#include "util/stats.h"

int main() {
  using namespace tasti;

  data::DatasetOptions dataset_options;
  dataset_options.num_records = 20000;
  dataset_options.seed = 3;
  data::Dataset video = data::MakeNightStreet(dataset_options);
  // The session takes a labeler::FallibleLabeler; FallibleAdapter wraps
  // the never-failing simulator as one.
  labeler::SimulatedLabeler mask_rcnn(&video);
  labeler::FallibleAdapter oracle(&mask_rcnn);

  api::SessionOptions options;
  options.index.num_training_records = 1000;
  options.index.num_representatives = 1500;
  api::TastiSession session(&video, &oracle, options);

  core::CountScorer cars(data::ObjectClass::kCar);
  core::PresenceScorer has_car(data::ObjectClass::kCar);
  core::AtLeastCountScorer busy(data::ObjectClass::kCar, 4);

  std::printf("-- mixed workload over one auto-cracking session --\n");
  const auto agg = session.Aggregate(cars, 0.07);
  std::printf("Q1 aggregate: %.3f cars/frame (%zu labeler calls)\n",
              agg.estimate, agg.labeler_invocations);

  const auto recall_sel = session.SelectWithRecall(has_car, 0.9, 500);
  std::printf("Q2 recall-select: %zu frames (threshold %.3f)\n",
              recall_sel.selected.size(), recall_sel.threshold);

  const auto precision_sel = session.SelectWithPrecision(has_car, 0.9, 500);
  std::printf("Q3 precision-select: %zu frames (threshold %.3f)\n",
              precision_sel.selected.size(), precision_sel.threshold);

  const auto limit = session.Limit(busy, 10);
  std::printf("Q4 limit: found %zu/10 busy frames after %zu labeler calls\n",
              limit.found.size(), limit.labeler_invocations);

  const auto conditional =
      session.AggregateWhere(has_car, core::MeanXScorer(data::ObjectClass::kCar),
                             0.08);
  std::printf("Q5 conditional: mean x-position among car frames = %.3f\n",
              conditional.estimate);

  std::printf("\nsession: %zu queries, %zu total labeler calls (%zu for the "
              "index), %zu representatives after cracking\n",
              session.queries_executed(), session.total_labeler_invocations(),
              session.index_invocations(),
              session.index().num_representatives());
  std::printf("%s\n", core::ComputeIndexStats(session.index()).ToString().c_str());

  // The session kept a per-query ledger the whole time: invocations, wall
  // time by phase, and the price of each query under the paper's labelers.
  std::printf("\n-- per-query cost attribution --\n");
  eval::PrintQueryLog(session.query_log());

  // --- Streaming: tonight's new footage arrives ---
  std::printf("\n-- streaming ingestion --\n");
  data::DatasetOptions tonight_options;
  tonight_options.num_records = 4000;
  tonight_options.seed = 99;
  data::Dataset tonight = data::MakeNightStreet(tonight_options);

  // A copy of the session's index embeds the new frames with its stored
  // embedding network; no retraining, no labeler calls. (A served index
  // ingests through TastiServer::AppendRecords instead.)
  Result<std::string> bytes =
      core::IndexSerializer::SerializeToString(session.index());
  Result<core::TastiIndex> copy =
      bytes.ok() ? core::IndexSerializer::DeserializeFromString(*bytes)
                 : Result<core::TastiIndex>(bytes.status());
  if (!copy.ok()) {
    std::fprintf(stderr, "%s\n", copy.status().ToString().c_str());
    return 1;
  }
  core::TastiIndex& index = *copy;
  const size_t first_new = index.AppendRecords(tonight.features);
  std::printf("appended %zu frames (records %zu..%zu), 0 labeler calls\n",
              tonight.features.rows(), first_new,
              first_new + tonight.features.rows() - 1);

  auto estimate_new = [&]() {
    const auto proxies = core::ComputeProxyScores(index, cars);
    double mean = 0.0;
    for (size_t i = first_new; i < proxies.size(); ++i) mean += proxies[i];
    return mean / static_cast<double>(tonight.features.rows());
  };
  const double truth_new = Mean(core::ExactScores(tonight, cars));
  std::printf("estimate from the old representatives: %.3f (truth %.3f) -- "
              "tonight is busier than the index has seen\n",
              estimate_new(), truth_new);

  // Spot-label 200 of the new frames and crack them into the index: the
  // estimate tracks the shifted distribution.
  for (size_t i = 0; i < 200; ++i) {
    index.CrackFromLabels({first_new + i * 20}, {tonight.ground_truth[i * 20]});
  }
  std::printf("after cracking 200 labeled new frames: estimate %.3f (truth "
              "%.3f)\n",
              estimate_new(), truth_new);
  return 0;
}
