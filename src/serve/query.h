#ifndef TASTI_SERVE_QUERY_H_
#define TASTI_SERVE_QUERY_H_

/// \file query.h
/// The one query executor. TASTI answers every query the same way (paper
/// Section 5): score the representatives exactly, propagate to every
/// record, and hand the proxy to an existing algorithm. TastiServer owns
/// the first two steps (its score cache, per snapshot epoch); ExecuteQuery
/// is the third, so anything given the same proxy, oracle answers and seed
/// returns bit-identical payloads.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/scorer.h"
#include "labeler/labeler.h"
#include "queries/aggregation.h"
#include "queries/limit.h"
#include "queries/noguarantee.h"
#include "queries/predicate_aggregation.h"
#include "queries/supg.h"
#include "serve/deadline.h"
#include "serve/score_cache.h"
#include "serve/shedder.h"
#include "util/status.h"

namespace tasti::serve {

enum class QueryKind {
  kAggregate,
  kAggregateWhere,
  kSupgRecall,
  kSupgPrecision,
  kThresholdSelect,
  kLimit,
};

const char* QueryKindName(QueryKind kind);

/// Deterministic per-query seed: the stream query number `n` (1-based, the
/// server's query id) draws under base seed `base`, so a served query
/// draws the same randomness regardless of scheduling interleaving.
inline uint64_t DeriveQuerySeed(uint64_t base, uint64_t n) {
  return base * 2654435761ULL + n * 97;
}

/// One query request. Scorer pointers must outlive the query's execution.
struct QuerySpec {
  QueryKind kind = QueryKind::kAggregate;
  /// The statistic (aggregate) or predicate (everything else).
  const core::Scorer* scorer = nullptr;
  /// The statistic for kAggregateWhere (scorer is then the predicate).
  const core::Scorer* statistic = nullptr;
  double error_target = 0.05;   ///< aggregate / aggregate_where
  double target = 0.9;          ///< recall or precision target (SUPG)
  size_t budget = 500;          ///< SUPG oracle budget
  size_t validation_budget = 100;  ///< threshold select
  size_t want = 10;             ///< limit
  /// Client issuing the query; recorded in its ledger row's params.
  uint64_t client_id = 0;
  /// Priority class for admission-time load shedding (shedder.h).
  QueryPriority priority = QueryPriority::kInteractive;
  /// Latency budget in ms; 0 = unbounded. Accounted in virtual time when
  /// degrade.virtual_ms_per_call > 0, wall time otherwise. On expiry the
  /// query stops at the next phase boundary and returns a degraded
  /// (wider-interval / partial) answer instead of running over.
  double deadline_ms = 0.0;
};

/// One completed query. The member matching `kind` carries the payload;
/// the rest are default-constructed.
struct QueryResponse {
  uint64_t query_id = 0;
  QueryKind kind = QueryKind::kAggregate;
  /// Snapshot epoch the query executed against.
  uint64_t epoch = 0;
  /// OK when the query produced a usable (possibly degraded) result.
  Status status = Status::OK();

  queries::AggregationResult aggregate;
  queries::PredicateAggregationResult aggregate_where;
  queries::SupgResult supg;
  queries::ThresholdSelectResult select;
  queries::LimitResult limit;

  // Serving-layer accounting.
  size_t attributed_invocations = 0;  ///< physical oracle attempts charged here
  size_t logical_oracle_calls = 0;    ///< label requests the algorithm made
  size_t scheduler_cache_hits = 0;    ///< answered by the server-wide cache
  size_t scheduler_dedup_hits = 0;    ///< piggybacked on another query's call
  /// Representatives this query's crack added, and failed representatives
  /// its repairs re-annotated. Both stay 0 in deterministic mode, where
  /// Drain() commits the wave's mutations after the responses are out.
  size_t cracked_representatives = 0;
  size_t repaired_representatives = 0;
  /// How the query's proxy scores were obtained (score cache accounting).
  ProxySource proxy_source = ProxySource::kFull;
  /// Record rows recomputed when proxy_source is kDelta.
  size_t proxy_delta_rows = 0;
  double queue_wait_ms = 0.0;  ///< admission-queue time before a worker ran it
  double execute_seconds = 0.0;  ///< wall time from dequeue to completion

  // Degradation accounting (DESIGN.md §15).
  /// True when the answer is weaker than requested: the deadline cut
  /// sampling short, or a sharded gather merged without some shards.
  bool degraded = false;
  /// How much statistical guarantee the answer retains.
  GuaranteeLevel guarantee = GuaranteeLevel::kFull;
  /// True when the query's deadline expired mid-execution.
  bool deadline_hit = false;
  double deadline_budget_ms = 0.0;  ///< spec.deadline_ms (0 = unbounded)
  double deadline_spent_ms = 0.0;   ///< deadline time consumed at completion
};

/// Runs `spec`'s algorithm over `proxy` (limit-ranking scores for kLimit,
/// numeric proxy scores otherwise), labeling through `oracle`. `seed`
/// drives the sampling kinds; `confidence` the guarantee-carrying ones.
/// Fills kind, status and the payload matching kind; a deadline that
/// expires mid-query sets deadline_hit, degraded and GuaranteeLevel
/// kReduced. A failed query (non-OK status) carries a default payload
/// whose failed_oracle_calls is the oracle invocations it spent. Runs
/// under the `serve.execute` span: the QueryLog's algorithm phase is that
/// span less the `oracle.call` spans inside it.
QueryResponse ExecuteQuery(const QuerySpec& spec,
                           const std::vector<double>& proxy,
                           labeler::FallibleLabeler* oracle, uint64_t seed,
                           double confidence, const Deadline& deadline = {});

/// Oracle calls that failed during the query, from the payload matching
/// response.kind.
size_t FailedOracleCalls(const QueryResponse& response);

/// The spec's parameters for query ledgers, e.g.
/// "predicate=presence(car) recall_target=0.9 budget=500".
std::string QueryParams(const QuerySpec& spec);

}  // namespace tasti::serve

#endif  // TASTI_SERVE_QUERY_H_
