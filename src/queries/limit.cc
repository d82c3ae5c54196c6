#include "queries/limit.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "queries/sampling.h"
#include "util/status.h"

namespace tasti::queries {

Result<LimitResult> TryLimitQuery(const std::vector<double>& ranking_scores,
                                  labeler::FallibleLabeler* oracle,
                                  const core::Scorer& predicate,
                                  const LimitOptions& options) {
  TASTI_CHECK(oracle != nullptr, "TryLimitQuery requires an oracle");
  if (ranking_scores.size() != oracle->num_records()) {
    return Status::FailedPrecondition(
        "limit: ranking scores must cover every record");
  }
  TASTI_CHECK(options.want > 0, "want must be positive");

  const size_t n = ranking_scores.size();
  const size_t cap = options.max_invocations > 0
                         ? std::min(options.max_invocations, n)
                         : n;

  // Stable descending sort by score: deterministic examination order.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return ranking_scores[a] > ranking_scores[b];
  });

  LimitResult result;
  TASTI_SPAN("query.limit.scan");
  // Each batch is the next `want - found` records in ranking order: the
  // fewest labels that could still satisfy the limit, so no batch labels
  // a record past the one that satisfies it.
  size_t next = 0;
  while (next < cap && !result.satisfied) {
    const size_t end = std::min(cap, next + options.want - result.found.size());
    const std::vector<size_t> batch(order.begin() + next, order.begin() + end);
    std::vector<Result<data::LabelerOutput>> labels =
        LabelInRuns(oracle, batch, options.deadline);
    for (size_t i = 0; i < labels.size() && !result.satisfied; ++i) {
      ++result.labeler_invocations;
      if (!labels[i].ok()) {
        // Skip the record; the call still consumed budget.
        ++result.failed_oracle_calls;
        continue;
      }
      if (predicate.Score(*labels[i]) >= 0.5) {
        result.found.push_back(batch[i]);
        result.satisfied = result.found.size() >= options.want;
      }
    }
    next += labels.size();
    // Deadline boundary: stop the scan with whatever has been found.
    if (labels.size() < batch.size()) {
      result.deadline_hit = true;
      break;
    }
  }
  if (result.labeler_invocations > 0 &&
      result.failed_oracle_calls == result.labeler_invocations) {
    return Status::Unavailable("limit: every oracle call failed (" +
                               std::to_string(result.failed_oracle_calls) +
                               " attempts)");
  }
  return result;
}

}  // namespace tasti::queries
