#include "baselines/uniform.h"

namespace tasti::baselines {

queries::AggregationResult UniformAggregate(
    labeler::TargetLabeler* labeler, const core::Scorer& scorer,
    const queries::AggregationOptions& options) {
  queries::AggregationOptions no_proxy = options;
  no_proxy.use_control_variate = false;
  const std::vector<double> constant_proxy(labeler->num_records(), 0.0);
  labeler::FallibleAdapter oracle(labeler);
  return queries::TryEstimateMean(constant_proxy, &oracle, scorer, no_proxy)
      .value();
}

double ExhaustiveMean(labeler::TargetLabeler* labeler,
                      const core::Scorer& scorer) {
  double sum = 0.0;
  const size_t n = labeler->num_records();
  for (size_t i = 0; i < n; ++i) {
    sum += scorer.Score(labeler->Label(i));
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace tasti::baselines
