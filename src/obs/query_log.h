#ifndef TASTI_OBS_QUERY_LOG_H_
#define TASTI_OBS_QUERY_LOG_H_

/// \file query_log.h
/// Per-query cost attribution for a TastiSession.
///
/// The paper's headline claims (Table 1, Figures 6-9) are statements about
/// where time and target-labeler invocations go. The QueryLog makes every
/// session produce that ledger as a machine-readable artifact: one record
/// per query with the query type, parameters, wall time split by phase
/// (representative scoring, propagation, query algorithm, oracle calls,
/// cracking), the labeler invocations attributed to *that* query, and
/// their cost in each Table-1 labeler's native unit via labeler::CostModel.
///
/// Attribution invariant: index_invocations() plus the sum of per-query
/// invocations equals the target labeler's invocations() counter, provided
/// the labeler started the session at zero.

#include <cstddef>
#include <string>
#include <vector>

#include "labeler/cost_model.h"
#include "labeler/labeler.h"
#include "util/status.h"
#include "util/timer.h"

namespace tasti::obs {

/// Wall time of one query, split by phase. Phases are disjoint:
/// algorithm_seconds excludes time spent inside the target labeler
/// (oracle_seconds), measured by TimedOracle pausing the algorithm timer
/// around each oracle call.
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
  /// (self-healing crack; see SessionOptions::max_rep_repairs_per_query).
  size_t repaired_representatives = 0;
  /// How the proxy scores were obtained when served through the score
  /// cache: "full", "delta", "hit", or "shared". Empty for sessions (no
  /// cache in the single-query path).
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
/// per query. Not thread-safe (sessions are single-threaded).
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

/// Oracle wrapper that (1) measures the wall time spent inside the wrapped
/// oracle, successful calls or not, and (2) pauses a caller-supplied phase
/// timer around each call, so the phase timer reads pure algorithm time.
/// Invocation counting delegates to the wrapped oracle.
class TimedOracle : public labeler::FallibleLabeler {
 public:
  /// Both pointers must outlive the wrapper; `paused_while_labeling` may
  /// be null (pure measurement).
  TimedOracle(labeler::FallibleLabeler* inner, WallTimer* paused_while_labeling)
      : inner_(inner), paused_(paused_while_labeling) {}

  Result<data::LabelerOutput> TryLabel(size_t index) override {
    const bool pause = paused_ != nullptr && paused_->running();
    if (pause) paused_->Pause();
    WallTimer call_timer;
    Result<data::LabelerOutput> out = inner_->TryLabel(index);
    seconds_ += call_timer.Seconds();
    if (pause) paused_->Resume();
    return out;
  }

  Result<data::LabelerOutput> TryLabelWithin(size_t index,
                                             double budget_ms) override {
    const bool pause = paused_ != nullptr && paused_->running();
    if (pause) paused_->Pause();
    WallTimer call_timer;
    Result<data::LabelerOutput> out = inner_->TryLabelWithin(index, budget_ms);
    seconds_ += call_timer.Seconds();
    if (pause) paused_->Resume();
    return out;
  }

  size_t num_records() const override { return inner_->num_records(); }
  size_t invocations() const override { return inner_->invocations(); }
  void ResetInvocations() override { inner_->ResetInvocations(); }
  double last_call_latency_ms() const override {
    return inner_->last_call_latency_ms();
  }

  /// Wall seconds spent inside the wrapped oracle so far.
  double seconds() const { return seconds_; }

 private:
  labeler::FallibleLabeler* inner_;
  WallTimer* paused_;
  double seconds_ = 0.0;
};

}  // namespace tasti::obs

#endif  // TASTI_OBS_QUERY_LOG_H_
