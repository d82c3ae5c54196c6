#include "queries/limit.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "util/status.h"

namespace tasti::queries {

Result<LimitResult> TryLimitQuery(const std::vector<double>& ranking_scores,
                                  labeler::FallibleLabeler* oracle,
                                  const core::Scorer& predicate,
                                  const LimitOptions& options) {
  TASTI_CHECK(oracle != nullptr, "TryLimitQuery requires an oracle");
  TASTI_CHECK(ranking_scores.size() == oracle->num_records(),
              "ranking scores must cover every record");
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
  for (size_t i = 0; i < cap; ++i) {
    // Deadline boundary: stop the scan with whatever has been found.
    if (options.deadline.exhausted()) {
      result.deadline_hit = true;
      break;
    }
    const size_t record = order[i];
    Result<data::LabelerOutput> label = oracle->TryLabel(record);
    ++result.labeler_invocations;
    if (!label.ok()) {
      // Skip the record; the call still consumed budget.
      ++result.failed_oracle_calls;
      continue;
    }
    if (predicate.Score(*label) >= 0.5) {
      result.found.push_back(record);
      if (result.found.size() >= options.want) {
        result.satisfied = true;
        break;
      }
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
