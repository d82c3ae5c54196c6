#ifndef TASTI_BASELINES_UNIFORM_H_
#define TASTI_BASELINES_UNIFORM_H_

/// \file uniform.h
/// Proxy-free baselines: uniform sampling for aggregation (plain EBS mean
/// estimation, the paper's "No proxy" bars) and exhaustive labeling (the
/// upper bound of Table 1).

#include <cstdint>
#include <vector>

#include "core/scorer.h"
#include "labeler/labeler.h"
#include "queries/aggregation.h"

namespace tasti::baselines {

/// Aggregation with uniform sampling and no control variate. Equivalent to
/// queries::TryEstimateMean with use_control_variate = false and constant
/// proxies.
queries::AggregationResult UniformAggregate(
    labeler::TargetLabeler* labeler, const core::Scorer& scorer,
    const queries::AggregationOptions& options);

/// Labels every record and returns the exact mean. Costs n invocations.
double ExhaustiveMean(labeler::TargetLabeler* labeler, const core::Scorer& scorer);

}  // namespace tasti::baselines

#endif  // TASTI_BASELINES_UNIFORM_H_
