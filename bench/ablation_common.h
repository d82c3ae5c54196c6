#ifndef TASTI_BENCH_ABLATION_COMMON_H_
#define TASTI_BENCH_ABLATION_COMMON_H_

/// \file ablation_common.h
/// Shared runner for the factor analysis (Figure 9) and lesion study
/// (Figure 10): builds a night-street index under a given combination of
/// ablation switches and measures aggregation and limit performance.

#include <string>
#include <vector>

#include "bench_common.h"
#include "core/index.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "eval/experiment.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"
#include "queries/limit.h"

namespace tasti::bench {

/// One ablation configuration.
struct AblationConfig {
  std::string label;
  bool triplet = true;
  bool fpf_mining = true;
  bool fpf_cluster = true;
};

/// Aggregation + limit cost under one configuration.
struct AblationResult {
  double agg_invocations = 0.0;
  double limit_invocations = 0.0;
};

inline AblationResult RunAblation(eval::Workbench* bench,
                                  const AblationConfig& config) {
  core::IndexOptions opts = bench->BaseIndexOptions();
  // Lean index for the ablations: at the default representative density
  // (10% of records) even random clustering blankets the rare tail, hiding
  // the FPF effect; 3% approaches the paper's rep-to-record ratio where
  // clustering policy decides whether rare events are covered at all.
  opts.num_representatives = opts.num_representatives / 3;
  opts.use_triplet_training = config.triplet;
  opts.use_fpf_mining = config.fpf_mining;
  opts.rep_selection = config.fpf_cluster ? core::RepSelectionPolicy::kFpfMixed
                                          : core::RepSelectionPolicy::kRandom;
  labeler::SimulatedLabeler oracle(&bench->dataset());
  labeler::FallibleAdapter adapter(&oracle);
  labeler::CachingFallibleLabeler cache(&adapter);
  core::TastiIndex index = core::TastiIndex::Build(bench->dataset(), &cache, opts);

  AblationResult result;
  core::CountScorer agg_scorer(data::ObjectClass::kCar);
  const std::vector<double> agg_proxy = core::ComputeProxyScores(index, agg_scorer);
  result.agg_invocations =
      MeanAggInvocations(bench, agg_proxy, agg_scorer,
                         AggErrorTargetFor(bench->id()), 810);

  core::AtLeastCountScorer limit_predicate(data::ObjectClass::kCar, 6);
  const std::vector<double> limit_proxy = core::ComputeProxyScores(
      index, limit_predicate, core::PropagationMode::kLimit);
  auto limit_oracle = bench->MakeOracle();
  labeler::FallibleAdapter limit_adapter(limit_oracle.get());
  queries::LimitOptions limit_opts;
  limit_opts.want = 10;
  result.limit_invocations = static_cast<double>(
      queries::TryLimitQuery(limit_proxy, &limit_adapter, limit_predicate,
                             limit_opts)
          .value()
          .labeler_invocations);
  return result;
}

}  // namespace tasti::bench

#endif  // TASTI_BENCH_ABLATION_COMMON_H_
