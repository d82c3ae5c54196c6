#ifndef TASTI_API_SESSION_H_
#define TASTI_API_SESSION_H_

/// \file session.h
/// TastiSession: the one-object API a downstream application uses.
///
/// A session is a one-worker serve::TastiServer (serial oracle dispatch,
/// inline cracks) started on first use, so it runs the paper's session
/// path through the one query engine:
///  - lazy construction on the first query or index() call (charging the
///    target labeler),
///  - proxy scores from the server's score cache, advanced incrementally
///    across cracks,
///  - labels from the server-wide label cache: a record labeled for the
///    build or an earlier query is free for every later one,
///  - failed-representative repair and index cracking after every query
///    (paper Section 3.3): each query's annotations become new
///    representatives, so queries get cheaper over time,
///  - labeler-invocation accounting across the session.
///
///   labeler::SimulatedLabeler simulated(&dataset);
///   labeler::FallibleAdapter oracle(&simulated);
///   api::TastiSession session(&dataset, &oracle, {});
///   auto agg = session.Aggregate(core::CountScorer(kCar), 0.05);
///   auto sel = session.SelectWithRecall(core::PresenceScorer(kCar), 0.9, 500);
///   auto lim = session.Limit(core::AtLeastCountScorer(kCar, 5), 10);

#include <cstdint>

#include "core/index.h"
#include "core/scorer.h"
#include "data/dataset.h"
#include "labeler/labeler.h"
#include "obs/query_log.h"
#include "serve/query.h"
#include "serve/server.h"

namespace tasti::api {

/// Query n of a session (1-based) draws DeriveQuerySeed(seed, n), as
/// query id n does on a server.
using serve::DeriveQuerySeed;

/// Session-wide configuration.
struct SessionOptions {
  /// Index construction parameters (N1/N2/k/...).
  core::IndexOptions index;
  /// Crack the index with each query's annotations (recommended).
  bool auto_crack = true;
  /// Success probability shared by all guarantee-carrying queries.
  double confidence = 0.95;
  /// Base seed; each query perturbs it deterministically.
  uint64_t seed = 1234;
};

/// One TASTI index + query processing, behind a single object.
/// Not thread-safe; use one session per thread.
class TastiSession {
 public:
  /// Queries run degraded when oracle calls fail (see
  /// last_query_status()), the index builds with placeholder labels for
  /// failed representatives, and queries repair them over time. Wrap a
  /// ground-truth labeler in labeler::FallibleAdapter to use it here. The
  /// dataset and oracle must outlive the session.
  TastiSession(const data::Dataset* dataset, labeler::FallibleLabeler* oracle,
               SessionOptions options);

  // --- Queries (each consumes target-labeler invocations) ---

  /// Runs one query of any kind through the server (TastiServer::Execute)
  /// and returns once its repairs and crack are applied. The typed methods
  /// below wrap it. The response's status is also last_query_status(); an
  /// invalid spec (no scorer, or kAggregateWhere without a statistic)
  /// returns InvalidArgument.
  serve::QueryResponse Execute(const serve::QuerySpec& spec);

  /// Mean of `statistic` over all records, within `error_target` with the
  /// session confidence (BlazeIt-style EBS with the index's proxy).
  queries::AggregationResult Aggregate(const core::Scorer& statistic,
                                       double error_target);

  /// Mean of `statistic` over records matching `predicate`.
  queries::PredicateAggregationResult AggregateWhere(
      const core::Scorer& predicate, const core::Scorer& statistic,
      double error_target);

  /// Recall-target selection (SUPG): returns >= `recall_target` of all
  /// matches with the session confidence, spending `budget` labeler calls.
  queries::SupgResult SelectWithRecall(const core::Scorer& predicate,
                                       double recall_target, size_t budget);

  /// Precision-target selection (SUPG).
  queries::SupgResult SelectWithPrecision(const core::Scorer& predicate,
                                          double precision_target,
                                          size_t budget);

  /// Selection without guarantees: threshold fit on a labeled validation
  /// sample (NoScope-style).
  queries::ThresholdSelectResult Select(const core::Scorer& predicate,
                                        size_t validation_budget);

  /// Find `want` records matching `predicate`, examining proxy-ranked
  /// records with the labeler.
  queries::LimitResult Limit(const core::Scorer& predicate, size_t want);

  // --- Introspection ---

  /// The underlying index; builds it if no query has run yet.
  const core::TastiIndex& index();

  /// True once the index has been constructed.
  bool index_built() const { return started_; }

  /// Target-labeler invocations consumed so far (index + all queries).
  size_t total_labeler_invocations() const {
    return query_log().total_invocations();
  }

  /// Labeler invocations spent on index construction only.
  size_t index_invocations() const { return server_.index_invocations(); }

  /// Queries executed so far.
  size_t queries_executed() const {
    return static_cast<size_t>(server_.stats().queries_completed);
  }

  /// Status of the most recent query. OK when the query produced a usable
  /// (possibly degraded) result; an error — e.g. Unavailable when every
  /// oracle call failed — means the returned result was a default value.
  const Status& last_query_status() const { return last_query_status_; }

  /// Failed representatives repaired across the session so far (the sum
  /// of the query log's repaired_representatives).
  size_t representatives_repaired() const;

  /// Per-query cost ledger: the server's, one record per query with wall
  /// time split by phase, labeler invocations attributed to that query,
  /// and their price under the Table-1 cost model. The attribution
  /// invariant (index + sum of queries == labeler->invocations()) holds
  /// when the labeler entered the session with a zero invocation counter.
  const obs::QueryLog& query_log() const { return server_.query_log(); }

 private:
  void EnsureStarted();

  serve::TastiServer server_;
  bool started_ = false;
  Status last_query_status_ = Status::OK();
};

}  // namespace tasti::api

#endif  // TASTI_API_SESSION_H_
