#ifndef TASTI_QUERIES_LIMIT_H_
#define TASTI_QUERIES_LIMIT_H_

/// \file limit.h
/// Limit queries ("find 10 frames with at least 5 cars"), following the
/// ranking algorithm of BlazeIt (Kang et al. 2019): examine records in
/// descending proxy-score order with the target labeler, stopping as soon
/// as the requested number of matches is found. The cost metric is the
/// number of labeler invocations (paper Figure 6).

#include <cstdint>
#include <vector>

#include "core/scorer.h"
#include "labeler/labeler.h"
#include "serve/deadline.h"

namespace tasti::queries {

/// Parameters of the limit query.
struct LimitOptions {
  /// Number of matching records requested.
  size_t want = 10;
  /// Hard cap on labeler invocations; 0 means the dataset size.
  size_t max_invocations = 0;
  /// Deadline checked before each batch of the scan; on expiry the scan
  /// stops with the matches found so far (satisfied stays false unless
  /// `want` was already reached). Default: unbounded.
  serve::Deadline deadline;
};

/// Outcome of one limit query.
struct LimitResult {
  /// Matching record indices, in examination order (at most `want`).
  std::vector<size_t> found;
  /// Labeler invocations consumed.
  size_t labeler_invocations = 0;
  /// True if `want` matches were found within the budget.
  bool satisfied = false;
  /// Oracle calls that failed after retries (fallible path only); the
  /// scan skips those records and continues down the ranking.
  size_t failed_oracle_calls = 0;
  /// True if the deadline expired before the scan finished.
  bool deadline_hit = false;
};

/// Runs the ranked scan. `ranking_scores` orders records (descending);
/// `predicate` must map a labeler output to >= 0.5 iff it matches. A
/// record whose oracle call fails is skipped (it still consumes budget —
/// the call was made) and the scan continues. Fails with Unavailable only
/// if no call succeeded, and with FailedPrecondition if `ranking_scores`
/// and the oracle disagree on the record count.
///
/// Each batch is the next `want - found` records in ranking order.
Result<LimitResult> TryLimitQuery(const std::vector<double>& ranking_scores,
                                  labeler::FallibleLabeler* oracle,
                                  const core::Scorer& predicate,
                                  const LimitOptions& options);

}  // namespace tasti::queries

#endif  // TASTI_QUERIES_LIMIT_H_
