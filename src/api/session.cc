#include "api/session.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"
#include "util/timer.h"

namespace tasti::api {

namespace {

// Trace span per query kind, indexed by serve::QueryKind.
constexpr const char* kQuerySpans[] = {
    "query.aggregate",        "query.aggregate_where", "query.select_recall",
    "query.select_precision", "query.select",          "query.limit",
};

serve::QuerySpec Spec(serve::QueryKind kind, const core::Scorer& scorer) {
  serve::QuerySpec spec;
  spec.kind = kind;
  spec.scorer = &scorer;
  return spec;
}

}  // namespace

TastiSession::TastiSession(const data::Dataset* dataset,
                           labeler::FallibleLabeler* oracle,
                           SessionOptions options)
    : dataset_(dataset), oracle_(oracle), options_(std::move(options)) {
  TASTI_CHECK(dataset != nullptr, "TastiSession requires a dataset");
  TASTI_CHECK(oracle != nullptr, "TastiSession requires an oracle");
  TASTI_CHECK(oracle->num_records() == dataset->size(),
              "oracle/dataset record count mismatch");
}

void TastiSession::EnsureIndex() {
  if (index_.has_value()) return;
  TASTI_SPAN("session.build_index");
  WallTimer timer;
  const size_t before = oracle_->invocations();
  labeler::CachingFallibleLabeler cache(oracle_);
  index_ = core::TastiIndex::Build(*dataset_, &cache, options_.index);
  index_invocations_ = oracle_->invocations() - before;
  total_invocations_ += index_invocations_;
  query_log_.RecordIndexBuild(index_invocations_, timer.Seconds());
}

uint64_t TastiSession::NextSeed() {
  return DeriveQuerySeed(options_.seed,
                         static_cast<uint64_t>(++queries_executed_));
}

const std::vector<double>& TastiSession::ProxyScores(
    const core::Scorer& scorer, core::PropagationMode mode) {
  EnsureIndex();
  const std::string key =
      scorer.Name() + "#" + std::to_string(static_cast<int>(mode));
  auto it = proxy_cache_.find(key);
  if (it == proxy_cache_.end()) {
    it = proxy_cache_
             .emplace(key, core::ComputeProxyScores(*index_, scorer, mode))
             .first;
  }
  return it->second;
}

size_t TastiSession::RepairFailedReps() {
  if (index_->num_failed_representatives() == 0) return 0;
  TASTI_SPAN("session.repair_reps");
  const std::vector<size_t> positions =
      index_->failed_representative_positions();
  const std::vector<size_t> records = index_->failed_rep_record_ids();
  const size_t attempts =
      std::min(positions.size(), options_.max_rep_repairs_per_query);
  size_t repaired = 0;
  for (size_t i = 0; i < attempts; ++i) {
    Result<data::LabelerOutput> label = oracle_->TryLabel(records[i]);
    if (!label.ok()) continue;  // still failing; retried after a later query
    index_->RepairRepresentative(positions[i], *std::move(label));
    ++repaired;
  }
  reps_repaired_ += repaired;
  if (repaired > 0) {
    // Repaired representatives re-enter propagation.
    proxy_cache_.clear();
  }
  return repaired;
}

void TastiSession::FinishQuery(const labeler::CachingFallibleLabeler& cache,
                               size_t invocations_before,
                               const serve::QuerySpec& spec,
                               const obs::SpanTotals& spans,
                               serve::QueryResponse* response) {
  // Repairs run inside the query's accounting window so the attribution
  // invariant (index + sum of queries == oracle invocations) still holds.
  const size_t repaired = RepairFailedReps();
  const size_t query_invocations =
      oracle_->invocations() - invocations_before;
  total_invocations_ += query_invocations;

  size_t cracked = 0;
  if (options_.auto_crack) {
    TASTI_SPAN("session.crack");
    cracked = index_->CrackFrom(cache);
    if (cracked > 0) {
      // New representatives change every propagated score.
      proxy_cache_.clear();
    }
  }
  response->attributed_invocations = query_invocations;
  response->cracked_representatives = cracked;
  const size_t failed_oracle_calls = serve::FailedOracleCalls(*response);

  obs::QueryRecord record;
  record.query_type = serve::QueryKindName(spec.kind);
  record.params = serve::QueryParams(spec);
  record.phases = obs::PhaseTimesFromSpans(spans);
  record.labeler_invocations = query_invocations;
  record.cracked_representatives = cracked;
  record.failed_oracle_calls = failed_oracle_calls;
  record.repaired_representatives = repaired;
  query_log_.AddQuery(std::move(record));

  if (obs::MetricsEnabled()) {
    static obs::Counter* const queries =
        obs::MetricsRegistry::Global().counter("session.queries", "queries");
    static obs::Counter* const invocations =
        obs::MetricsRegistry::Global().counter("session.query_invocations",
                                               "calls");
    static obs::Counter* const cracked_reps =
        obs::MetricsRegistry::Global().counter("session.cracked_reps",
                                               "representatives");
    static obs::Counter* const failed_calls =
        obs::MetricsRegistry::Global().counter("session.failed_oracle_calls",
                                               "calls");
    static obs::Counter* const repaired_reps =
        obs::MetricsRegistry::Global().counter("session.repaired_reps",
                                               "representatives");
    queries->Increment();
    invocations->Increment(query_invocations);
    cracked_reps->Increment(cracked);
    failed_calls->Increment(failed_oracle_calls);
    repaired_reps->Increment(repaired);
  }
}

serve::QueryResponse TastiSession::Execute(const serve::QuerySpec& spec) {
  // The lazy build runs before the query's span scope opens, so its spans
  // (oracle calls included) neither count toward this query's phases nor
  // nest under its query span.
  EnsureIndex();
  obs::SpanTotals spans;
  TASTI_SPAN(kQuerySpans[static_cast<size_t>(spec.kind)]);
  const std::vector<double>& proxy =
      ProxyScores(*spec.scorer, spec.kind == serve::QueryKind::kLimit
                                    ? core::PropagationMode::kLimit
                                    : core::PropagationMode::kNumeric);
  const size_t before = oracle_->invocations();
  labeler::CachingFallibleLabeler cache(oracle_);
  serve::QueryResponse response = serve::ExecuteQuery(
      spec, proxy, &cache, NextSeed(), options_.confidence);
  last_query_status_ = response.status;
  FinishQuery(cache, before, spec, spans, &response);
  return response;
}

queries::AggregationResult TastiSession::Aggregate(const core::Scorer& statistic,
                                                   double error_target) {
  serve::QuerySpec spec = Spec(serve::QueryKind::kAggregate, statistic);
  spec.error_target = error_target;
  return Execute(spec).aggregate;
}

queries::PredicateAggregationResult TastiSession::AggregateWhere(
    const core::Scorer& predicate, const core::Scorer& statistic,
    double error_target) {
  serve::QuerySpec spec = Spec(serve::QueryKind::kAggregateWhere, predicate);
  spec.statistic = &statistic;
  spec.error_target = error_target;
  return Execute(spec).aggregate_where;
}

queries::SupgResult TastiSession::SelectWithRecall(const core::Scorer& predicate,
                                                   double recall_target,
                                                   size_t budget) {
  serve::QuerySpec spec = Spec(serve::QueryKind::kSupgRecall, predicate);
  spec.target = recall_target;
  spec.budget = budget;
  return Execute(spec).supg;
}

queries::SupgResult TastiSession::SelectWithPrecision(
    const core::Scorer& predicate, double precision_target, size_t budget) {
  serve::QuerySpec spec = Spec(serve::QueryKind::kSupgPrecision, predicate);
  spec.target = precision_target;
  spec.budget = budget;
  return Execute(spec).supg;
}

queries::ThresholdSelectResult TastiSession::Select(const core::Scorer& predicate,
                                                    size_t validation_budget) {
  serve::QuerySpec spec = Spec(serve::QueryKind::kThresholdSelect, predicate);
  spec.validation_budget = validation_budget;
  return Execute(spec).select;
}

queries::LimitResult TastiSession::Limit(const core::Scorer& predicate,
                                         size_t want) {
  serve::QuerySpec spec = Spec(serve::QueryKind::kLimit, predicate);
  spec.want = want;
  return Execute(spec).limit;
}

const core::TastiIndex& TastiSession::index() {
  EnsureIndex();
  return *index_;
}

core::TastiIndex& TastiSession::mutable_index() {
  EnsureIndex();
  return *index_;
}

}  // namespace tasti::api
