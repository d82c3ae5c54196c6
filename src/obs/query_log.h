#ifndef TASTI_OBS_QUERY_LOG_H_
#define TASTI_OBS_QUERY_LOG_H_

/// \file query_log.h
/// Per-query cost attribution for a TastiServer (and so for a TastiSession,
/// which is a one-worker server).
///
/// The paper's headline claims (Table 1, Figures 6-9) are statements about
/// where time and target-labeler invocations go. The QueryLog makes every
/// session and server produce that ledger as a machine-readable artifact:
/// one record per query with the query type, parameters, wall time split
/// by phase (representative scoring, propagation, query algorithm, oracle
/// calls, cracking — read from the query's span totals, see
/// PhaseTimesFromSpans), the labeler invocations attributed to *that*
/// query, and their cost in each Table-1 labeler's native unit via
/// labeler::CostModel.
///
/// Attribution invariant: index_invocations() plus the sum of per-query
/// invocations equals the target labeler's invocations() counter, provided
/// the labeler started the session at zero.

#include <cstddef>
#include <string>
#include <vector>

#include "labeler/cost_model.h"
#include "obs/trace.h"
#include "util/status.h"

namespace tasti::obs {

/// Wall time of one query, split by phase. Phases are disjoint:
/// algorithm_seconds excludes time spent inside the target labeler
/// (oracle_seconds). Every phase is a sum of span totals; see
/// PhaseTimesFromSpans.
struct QueryPhaseTimes {
  double rep_score_seconds = 0.0;    ///< scorer over representatives
  double propagation_seconds = 0.0;  ///< propagation to all records
  double algorithm_seconds = 0.0;    ///< query algorithm, oracle excluded
  double oracle_seconds = 0.0;       ///< inside target labeler calls
  double crack_seconds = 0.0;        ///< post-query index cracking

  double TotalSeconds() const {
    return rep_score_seconds + propagation_seconds + algorithm_seconds +
           oracle_seconds + crack_seconds;
  }
};

/// The one mapping from a query's span totals to its phases:
///   rep_score   = query.proxy.rep_scores + query.proxy.rep_scores_delta
///   propagation = query.proxy.propagate + query.proxy.propagate_delta
///   oracle      = oracle.call (per-query label cache misses)
///   algorithm   = serve.execute - oracle.call
///   crack       = serve.crack
/// A proxy served from a cache opens no proxy span on the query's thread,
/// so its rep_score and propagation read zero.
QueryPhaseTimes PhaseTimesFromSpans(const SpanTotals& spans);

/// One executed query.
struct QueryRecord {
  std::string query_type;  ///< "aggregate", "supg_recall", "limit", ...
  std::string params;      ///< e.g. "scorer=count_car error_target=0.05"
  QueryPhaseTimes phases;
  /// Oracle attempts attributed to this query alone. Includes attempts
  /// that failed — the cost metric is calls made, not labels obtained.
  size_t labeler_invocations = 0;
  size_t cracked_representatives = 0;
  /// Oracle calls that failed after retries during this query.
  size_t failed_oracle_calls = 0;
  /// Previously-failed representatives repaired after this query
  /// (self-healing; at most serve::kMaxRepRepairsPerQuery). Like
  /// cracked_representatives, 0 on a deterministic server, whose Drain()
  /// commits both after the query is logged.
  size_t repaired_representatives = 0;
  /// How the proxy scores were obtained when served through the score
  /// cache: "full", "delta", "hit", or "shared".
  std::string proxy_source;
  /// Record rows recomputed when proxy_source is "delta".
  size_t proxy_delta_rows = 0;

  // Cost of this query's labeler invocations under each Table-1 labeler,
  // in its native unit (filled by QueryLog::AddQuery from its CostModel).
  double human_dollars = 0.0;
  double mask_rcnn_seconds = 0.0;
  double ssd_seconds = 0.0;
};

/// Session-lifetime ledger: the index-construction charge plus one record
/// per query. Not thread-safe (TastiServer guards its log with a mutex).
class QueryLog {
 public:
  /// Replaces the cost model used to price subsequent records.
  void SetCostModel(const labeler::CostModel& model) { cost_model_ = model; }
  const labeler::CostModel& cost_model() const { return cost_model_; }

  /// Records the index-construction charge (once per session build).
  void RecordIndexBuild(size_t invocations, double seconds);

  /// Appends one query record, pricing its invocations with the cost model.
  void AddQuery(QueryRecord record);

  const std::vector<QueryRecord>& queries() const { return queries_; }
  size_t index_invocations() const { return index_invocations_; }
  double index_build_seconds() const { return index_build_seconds_; }

  /// index_invocations() + sum of per-query invocations. Matches the
  /// target labeler's invocations() counter (see file comment).
  size_t total_invocations() const;

  /// Total wall seconds across all query phases (index build excluded).
  double total_query_seconds() const;

  /// JSON document:
  ///   {"index": {...}, "queries": [...], "totals": {...}}
  /// See DESIGN.md §8 for the field inventory.
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  Status WriteJson(const std::string& path) const;

  void Clear();

 private:
  labeler::CostModel cost_model_;
  size_t index_invocations_ = 0;
  double index_build_seconds_ = 0.0;
  std::vector<QueryRecord> queries_;
};

}  // namespace tasti::obs

#endif  // TASTI_OBS_QUERY_LOG_H_
