#include "api/session.h"

#include "util/status.h"

namespace tasti::api {

namespace {

serve::ServerOptions OneWorkerServer(const SessionOptions& options) {
  serve::ServerOptions server;
  server.num_workers = 1;
  server.auto_crack = options.auto_crack;
  server.index = options.index;
  server.confidence = options.confidence;
  server.seed = options.seed;
  return server;
}

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
    : server_(dataset, oracle, OneWorkerServer(options)) {}

void TastiSession::EnsureStarted() {
  if (started_) return;
  const Status started = server_.Start();
  TASTI_CHECK(started.ok(), "session server failed to start");
  started_ = true;
}

serve::QueryResponse TastiSession::Execute(const serve::QuerySpec& spec) {
  EnsureStarted();
  serve::QueryResponse response = server_.Execute(spec);
  last_query_status_ = response.status;
  return response;
}

size_t TastiSession::representatives_repaired() const {
  size_t repaired = 0;
  for (const obs::QueryRecord& record : query_log().queries()) {
    repaired += record.repaired_representatives;
  }
  return repaired;
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
  EnsureStarted();
  return server_.index();
}

}  // namespace tasti::api
