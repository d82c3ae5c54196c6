#include "serve/query.h"

#include <cstdio>
#include <utility>

#include "obs/trace.h"

namespace tasti::serve {

namespace {

std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// Moves a fallible algorithm's result into the payload slot matching the
// query kind. A failed result leaves the slot default-constructed apart
// from the oracle invocations the attempt spent.
template <typename Payload>
void StoreResult(Result<Payload> result, size_t spent_invocations,
                 Payload* slot, QueryResponse* response) {
  response->status = result.status();
  if (result.ok()) {
    *slot = std::move(result).value();
    response->deadline_hit = slot->deadline_hit;
  } else {
    slot->failed_oracle_calls = spent_invocations;
  }
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kAggregate: return "aggregate";
    case QueryKind::kAggregateWhere: return "aggregate_where";
    case QueryKind::kSupgRecall: return "supg_recall";
    case QueryKind::kSupgPrecision: return "supg_precision";
    case QueryKind::kThresholdSelect: return "threshold_select";
    case QueryKind::kLimit: return "limit";
  }
  return "unknown";
}

QueryResponse ExecuteQuery(const QuerySpec& spec,
                           const std::vector<double>& proxy,
                           labeler::FallibleLabeler* oracle, uint64_t seed,
                           double confidence, const Deadline& deadline) {
  TASTI_SPAN("serve.execute");
  QueryResponse response;
  response.kind = spec.kind;
  const size_t before = oracle->invocations();
  auto spent = [&] { return oracle->invocations() - before; };
  switch (spec.kind) {
    case QueryKind::kAggregate: {
      queries::AggregationOptions opts;
      opts.error_target = spec.error_target;
      opts.confidence = confidence;
      opts.seed = seed;
      opts.deadline = deadline;
      auto r = queries::TryEstimateMean(proxy, oracle, *spec.scorer, opts);
      StoreResult(std::move(r), spent(), &response.aggregate, &response);
      break;
    }
    case QueryKind::kAggregateWhere: {
      queries::PredicateAggregationOptions opts;
      opts.error_target = spec.error_target;
      opts.confidence = confidence;
      opts.seed = seed;
      opts.deadline = deadline;
      auto r = queries::TryEstimateMeanWithPredicate(
          proxy, oracle, *spec.scorer, *spec.statistic, opts);
      StoreResult(std::move(r), spent(), &response.aggregate_where, &response);
      break;
    }
    case QueryKind::kSupgRecall: {
      queries::SupgOptions opts;
      opts.recall_target = spec.target;
      opts.confidence = confidence;
      opts.budget = spec.budget;
      opts.seed = seed;
      opts.deadline = deadline;
      auto r = queries::TrySupgRecallSelect(proxy, oracle, *spec.scorer, opts);
      StoreResult(std::move(r), spent(), &response.supg, &response);
      break;
    }
    case QueryKind::kSupgPrecision: {
      queries::SupgPrecisionOptions opts;
      opts.precision_target = spec.target;
      opts.confidence = confidence;
      opts.budget = spec.budget;
      opts.seed = seed;
      opts.deadline = deadline;
      auto r =
          queries::TrySupgPrecisionSelect(proxy, oracle, *spec.scorer, opts);
      StoreResult(std::move(r), spent(), &response.supg, &response);
      break;
    }
    case QueryKind::kThresholdSelect: {
      queries::ThresholdSelectOptions opts;
      opts.validation_budget = spec.validation_budget;
      opts.seed = seed;
      opts.deadline = deadline;
      auto r = queries::TryThresholdSelect(proxy, oracle, *spec.scorer, opts);
      StoreResult(std::move(r), spent(), &response.select, &response);
      break;
    }
    case QueryKind::kLimit: {
      queries::LimitOptions opts;
      opts.want = spec.want;
      opts.deadline = deadline;
      auto r = queries::TryLimitQuery(proxy, oracle, *spec.scorer, opts);
      StoreResult(std::move(r), spent(), &response.limit, &response);
      break;
    }
  }
  if (response.status.code() == StatusCode::kDeadlineExceeded) {
    // Expired before any sample: no payload, but the cause is recorded.
    response.deadline_hit = true;
  }
  if (response.deadline_hit) {
    response.degraded = true;
    response.guarantee = GuaranteeLevel::kReduced;
  }
  return response;
}

size_t FailedOracleCalls(const QueryResponse& response) {
  switch (response.kind) {
    case QueryKind::kAggregate:
      return response.aggregate.failed_oracle_calls;
    case QueryKind::kAggregateWhere:
      return response.aggregate_where.failed_oracle_calls;
    case QueryKind::kSupgRecall:
    case QueryKind::kSupgPrecision:
      return response.supg.failed_oracle_calls;
    case QueryKind::kThresholdSelect:
      return response.select.failed_oracle_calls;
    case QueryKind::kLimit:
      return response.limit.failed_oracle_calls;
  }
  return 0;
}

std::string QueryParams(const QuerySpec& spec) {
  const std::string predicate = "predicate=" + spec.scorer->Name();
  switch (spec.kind) {
    case QueryKind::kAggregate:
      return "scorer=" + spec.scorer->Name() +
             " error_target=" + FmtDouble(spec.error_target);
    case QueryKind::kAggregateWhere:
      return predicate + " statistic=" + spec.statistic->Name() +
             " error_target=" + FmtDouble(spec.error_target);
    case QueryKind::kSupgRecall:
      return predicate + " recall_target=" + FmtDouble(spec.target) +
             " budget=" + std::to_string(spec.budget);
    case QueryKind::kSupgPrecision:
      return predicate + " precision_target=" + FmtDouble(spec.target) +
             " budget=" + std::to_string(spec.budget);
    case QueryKind::kThresholdSelect:
      return predicate +
             " validation_budget=" + std::to_string(spec.validation_budget);
    case QueryKind::kLimit:
      return predicate + " want=" + std::to_string(spec.want);
  }
  return predicate;
}

}  // namespace tasti::serve
