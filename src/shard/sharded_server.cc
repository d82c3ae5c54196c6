#include "shard/sharded_server.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "queries/merge.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tasti::shard {

namespace {

/// Latency quantile of recent sub-queries used as the hedge delay.
constexpr double kHedgeDelayQuantile = 0.95;

/// Shard directory under a durability base: "<dir>/shard-<s>".
std::string ShardDir(const std::string& dir, size_t s) {
  return dir + "/shard-" + std::to_string(s);
}

}  // namespace

data::Dataset SliceDataset(const data::Dataset& dataset, size_t begin,
                           size_t end, size_t shard) {
  TASTI_CHECK(begin <= end && end <= dataset.size(),
              "SliceDataset: range out of bounds");
  data::Dataset slice;
  slice.name = dataset.name + ".shard" + std::to_string(shard);
  slice.modality = dataset.modality;
  slice.ground_truth.assign(dataset.ground_truth.begin() + begin,
                            dataset.ground_truth.begin() + end);
  slice.features = dataset.features.RowSlice(begin, end);
  slice.closeness = dataset.closeness;
  slice.classes = dataset.classes;
  return slice;
}

core::IndexOptions ShardIndexOptions(const core::IndexOptions& base,
                                     size_t shard, size_t num_shards) {
  core::IndexOptions opts = base;
  opts.seed = base.seed + shard;
  if (num_shards > 1) {
    opts.num_representatives =
        std::max<size_t>(1, base.num_representatives / num_shards);
    opts.num_training_records =
        std::max<size_t>(8, base.num_training_records / num_shards);
  }
  return opts;
}

ShardedServer::ShardedServer(const data::Dataset* dataset,
                             labeler::FallibleLabeler* oracle,
                             ShardedServerOptions options)
    : dataset_(dataset),
      oracle_(oracle),
      options_(std::move(options)),
      partitioner_(dataset->size(), options_.num_shards) {
  TASTI_CHECK(oracle_->num_records() >= dataset_->size(),
              "oracle does not cover the dataset");
  baseline_invocations_ = oracle_->invocations();
  const size_t k = partitioner_.num_shards();
  shard_datasets_.reserve(k);
  views_.reserve(k);
  servers_.reserve(k);
  for (size_t s = 0; s < k; ++s) {
    shard_datasets_.push_back(SliceDataset(
        *dataset_, partitioner_.ShardBegin(s), partitioner_.ShardEnd(s), s));
    views_.push_back(std::make_unique<ShardLabelerView>(
        oracle_, partitioner_.ShardBegin(s), partitioner_.ShardSize(s)));
  }
  // Servers are constructed after every slice exists: the vectors above
  // no longer reallocate, so the pointers handed to TastiServer are stable.
  for (size_t s = 0; s < k; ++s) {
    servers_.push_back(std::make_unique<serve::TastiServer>(
        &shard_datasets_[s], views_[s].get(), ShardServerOptions(s)));
  }
}

serve::ServerOptions ShardedServer::ShardServerOptions(size_t s) const {
  const size_t k = partitioner_.num_shards();
  serve::ServerOptions opts = options_.server;
  opts.index = ShardIndexOptions(options_.server.index, s, k);
  // Large odd stride keeps per-shard seed streams disjoint even after the
  // server derives per-query seeds from them.
  opts.seed = options_.server.seed + 1000003 * s;
  // Union bound: K sub-queries at 1-(1-c)/K jointly succeed with prob c.
  opts.confidence = queries::ShardConfidence(options_.server.confidence, k);
  if (!options_.server.durability.dir.empty()) {
    opts.durability.dir = ShardDir(options_.server.durability.dir, s);
  }
  return opts;
}

void ShardedServer::AttachMonitor(size_t s, serve::ServerMonitor* monitor) {
  servers_[s]->AttachMonitor(monitor);
}

Status ShardedServer::Start() {
  const size_t k = num_shards();
  std::vector<Status> statuses(k, Status::OK());
  ParallelFor(
      0, k,
      [&](size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) statuses[s] = servers_[s]->Start();
      },
      /*min_shard_size=*/1);
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Status ShardedServer::RecoverFrom(const std::string& dir) {
  const std::string base =
      dir.empty() ? options_.server.durability.dir : dir;
  if (base.empty()) {
    return Status::FailedPrecondition(
        "ShardedServer::RecoverFrom: no durability directory configured");
  }
  const size_t k = num_shards();
  std::vector<Status> statuses(k, Status::OK());
  ParallelFor(
      0, k,
      [&](size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) {
          statuses[s] = servers_[s]->RecoverFrom(ShardDir(base, s));
        }
      },
      /*min_shard_size=*/1);
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

ShardedQueryResponse ShardedServer::Execute(const serve::QuerySpec& spec) {
  WallTimer wall;
  ShardedQueryResponse response = spec.kind == serve::QueryKind::kLimit
                                      ? ExecuteLimit(spec)
                                      : ExecuteScattered(spec);
  response.merged.kind = spec.kind;
  FoldAccounting(&response);
  response.merged.execute_seconds = wall.Seconds();
  return response;
}

ShardedQueryResponse ShardedServer::ExecuteScattered(
    const serve::QuerySpec& spec) {
  const size_t k = num_shards();
  std::vector<size_t> sizes;
  std::vector<size_t> offsets;
  {
    std::lock_guard<std::mutex> lock(partition_mu_);
    sizes = partitioner_.ShardSizes();
    offsets = partitioner_.ShardOffsets();
  }
  const std::vector<size_t> budgets = queries::SplitBudget(spec.budget, sizes);
  const std::vector<size_t> validation_budgets =
      queries::SplitBudget(spec.validation_budget, sizes);

  ShardedQueryResponse response;
  response.partials.resize(k);
  response.shard_complete.assign(k, false);
  // Gathering stops waiting at the query deadline only when partial
  // gather is on — otherwise sub-queries self-degrade under their own
  // deadlines and the gather blocks for all of them (legacy semantics).
  const serve::Deadline gather =
      options_.partial_gather && spec.deadline_ms > 0
          ? serve::Deadline::WallAfter(spec.deadline_ms)
          : serve::Deadline::Unbounded();
  const serve::Deadline hedge_window =
      options_.hedge.enabled ? serve::Deadline::WallAfter(HedgeDelayMs())
                             : serve::Deadline::Unbounded();
  std::vector<Result<uint64_t>> submitted;
  submitted.reserve(k);
  for (size_t s = 0; s < k; ++s) {
    serve::QuerySpec sub = spec;
    sub.budget = budgets[s];
    sub.validation_budget = validation_budgets[s];
    submitted.push_back(servers_[s]->Submit(sub));
  }

  std::vector<bool> have(k, false);
  std::vector<uint64_t> hedge_ids(k, 0);
  std::vector<bool> hedge_live(k, false);

  if (options_.hedge.enabled) {
    // Hedge phase: give every shard until the quantile-driven hedge delay
    // to answer, then re-dispatch stragglers (and outright failures) once
    // at a reduced oracle budget.
    for (size_t s = 0; s < k; ++s) {
      if (!submitted[s].ok()) continue;
      std::optional<serve::QueryResponse> r = servers_[s]->WaitFor(
          submitted[s].value(),
          std::min(hedge_window.remaining_ms(), gather.remaining_ms()));
      if (r.has_value()) {
        response.partials[s] = *std::move(r);
        have[s] = true;
      }
    }
    for (size_t s = 0; s < k; ++s) {
      const bool straggling = submitted[s].ok() && !have[s];
      const bool failed = !submitted[s].ok() ||
                          (have[s] && !response.partials[s].status.ok());
      if (!straggling && !failed) continue;
      serve::QuerySpec sub = spec;
      sub.budget = std::max<size_t>(
          1, static_cast<size_t>(static_cast<double>(budgets[s]) *
                                 options_.hedge.budget_fraction));
      sub.validation_budget = std::max<size_t>(
          1, static_cast<size_t>(static_cast<double>(validation_budgets[s]) *
                                 options_.hedge.budget_fraction));
      Result<uint64_t> hedge = servers_[s]->Submit(sub);
      if (hedge.ok()) {
        hedge_ids[s] = hedge.value();
        hedge_live[s] = true;
        ++response.hedged_shards;
      }
    }
  }

  // Final gather: per shard, take the first usable answer from the
  // primary or its hedge (alternating short waits while both are in
  // flight), up to the deadline when partial gather is on.
  for (size_t s = 0; s < k; ++s) {
    uint64_t ids[2] = {submitted[s].ok() ? submitted[s].value() : 0,
                       hedge_ids[s]};
    bool live[2] = {submitted[s].ok() && !have[s], hedge_live[s]};
    bool usable = have[s] && response.partials[s].status.ok();
    while (!usable && (live[0] || live[1])) {
      if (gather.remaining_ms() <= 0.0) break;
      for (int a = 0; a < 2 && !usable; ++a) {
        if (!live[a]) continue;
        // Alternate 2 ms polls while racing two attempts; otherwise wait
        // out the remaining budget in one shot.
        double slice = gather.remaining_ms();
        if (live[0] && live[1]) slice = std::min(slice, 2.0);
        if (slice <= 0.0) break;
        std::optional<serve::QueryResponse> r;
        if (std::isfinite(slice)) {
          r = servers_[s]->WaitFor(ids[a], slice);
        } else {
          r = servers_[s]->Wait(ids[a]);
        }
        if (!r.has_value()) continue;
        live[a] = false;
        if (r->status.ok() || !have[s]) {
          response.partials[s] = *std::move(r);
          have[s] = true;
        }
        usable = have[s] && response.partials[s].status.ok();
      }
    }
    for (int a = 0; a < 2; ++a) {
      if (live[a]) servers_[s]->Abandon(ids[a]);
    }
    if (!have[s]) {
      response.partials[s].kind = spec.kind;
      response.partials[s].status =
          submitted[s].ok()
              ? Status::DeadlineExceeded(
                    "shard " + std::to_string(s) +
                    " did not answer before the gather deadline")
              : submitted[s].status();
    } else {
      RecordShardLatency(response.partials[s].queue_wait_ms +
                         response.partials[s].execute_seconds * 1000.0);
    }
    response.shard_complete[s] = have[s] && response.partials[s].status.ok();
    response.shard_epochs.push_back(response.partials[s].epoch);
  }
  response.shards_queried = k;

  MergePartials(spec, sizes, offsets, &response);
  return response;
}

void ShardedServer::MergePartials(const serve::QuerySpec& spec,
                                  const std::vector<size_t>& sizes,
                                  const std::vector<size_t>& offsets,
                                  ShardedQueryResponse* response) const {
  const size_t k = response->partials.size();
  const std::vector<bool>& present = response->shard_complete;
  size_t absent = 0;
  for (bool ok : present) absent += ok ? 0 : 1;
  if (absent > 0 && (!options_.partial_gather || absent == k)) {
    return;  // FoldAccounting surfaces the failure (legacy semantics)
  }
  response->degraded_gather = absent > 0;
  queries::GatherQuality* quality = &response->quality;

  switch (spec.kind) {
    case serve::QueryKind::kAggregate: {
      std::vector<queries::AggregationResult> parts;
      parts.reserve(k);
      for (const auto& p : response->partials) parts.push_back(p.aggregate);
      response->merged.aggregate =
          queries::MergeAggregates(parts, sizes, present, quality);
      break;
    }
    case serve::QueryKind::kAggregateWhere: {
      std::vector<queries::PredicateAggregationResult> parts;
      parts.reserve(k);
      for (const auto& p : response->partials) {
        parts.push_back(p.aggregate_where);
      }
      response->merged.aggregate_where =
          queries::MergePredicateAggregates(parts, sizes, present, quality);
      break;
    }
    case serve::QueryKind::kSupgRecall:
    case serve::QueryKind::kSupgPrecision: {
      std::vector<queries::SupgResult> parts;
      parts.reserve(k);
      for (const auto& p : response->partials) parts.push_back(p.supg);
      const double recall_target =
          spec.kind == serve::QueryKind::kSupgRecall ? spec.target : 0.0;
      response->merged.supg = queries::MergeSupg(parts, offsets, sizes, present,
                                                 recall_target, quality);
      break;
    }
    case serve::QueryKind::kThresholdSelect: {
      std::vector<queries::ThresholdSelectResult> parts;
      parts.reserve(k);
      for (const auto& p : response->partials) parts.push_back(p.select);
      response->merged.select = queries::MergeThresholdSelects(
          parts, offsets, sizes, present, quality);
      break;
    }
    case serve::QueryKind::kLimit:
      TASTI_CHECK(false, "limit merges in ExecuteLimit");
  }
}

ShardedQueryResponse ShardedServer::ExecuteLimit(
    const serve::QuerySpec& spec) {
  const size_t k = num_shards();
  std::vector<size_t> sizes;
  std::vector<size_t> offsets;
  {
    std::lock_guard<std::mutex> lock(partition_mu_);
    sizes = partitioner_.ShardSizes();
    offsets = partitioner_.ShardOffsets();
  }
  ShardedQueryResponse response;
  // The deadline budget spans the whole sequential dispatch: each shard
  // gets what the previous shards left. Virtual accounting charges the
  // partials' reported spend (deterministic); wall accounting reads the
  // clock.
  serve::Deadline budget;
  if (spec.deadline_ms > 0) {
    budget = options_.server.degrade.virtual_ms_per_call > 0
                 ? serve::Deadline::VirtualBudget(spec.deadline_ms)
                 : serve::Deadline::WallAfter(spec.deadline_ms);
  }
  bool deadline_stopped = false;
  size_t found = 0;
  for (size_t s = 0; s < k; ++s) {
    if (budget.expired()) {
      deadline_stopped = true;
      break;
    }
    serve::QuerySpec sub = spec;
    sub.want = spec.want - found;  // only what's still missing
    sub.deadline_ms = budget.unbounded() ? 0.0 : budget.remaining_ms();
    response.partials.push_back(servers_[s]->Execute(sub));
    response.shard_epochs.push_back(response.partials.back().epoch);
    const serve::QueryResponse& partial = response.partials.back();
    budget.Charge(partial.deadline_spent_ms);  // virtual time only
    found += partial.limit.found.size();
    if (!partial.status.ok()) {
      if (options_.partial_gather) continue;  // treat as absent, scan on
      break;
    }
    if (found >= spec.want) break;
  }
  response.shards_queried = response.partials.size();
  response.shard_complete.resize(response.partials.size());
  size_t usable = 0;
  for (size_t s = 0; s < response.partials.size(); ++s) {
    response.shard_complete[s] = response.partials[s].status.ok();
    usable += response.shard_complete[s] ? 1 : 0;
  }
  const bool full = usable == response.partials.size() && !deadline_stopped;
  if (!full && (!options_.partial_gather || usable == 0)) {
    return response;  // FoldAccounting surfaces the failure
  }

  // Shards the early stop never asked are not missing mass, so a full
  // gather marks every shard present; a degraded one marks only the
  // queried shards that answered, so unqueried and failed shards widen the
  // merged answer.
  std::vector<bool> present(k, full);
  std::copy(response.shard_complete.begin(), response.shard_complete.end(),
            present.begin());
  std::vector<queries::LimitResult> parts;
  parts.reserve(response.partials.size());
  for (const auto& p : response.partials) parts.push_back(p.limit);
  response.merged.limit = queries::MergeLimits(parts, offsets, sizes, present,
                                               spec.want, &response.quality);
  response.degraded_gather = response.quality.absent > 0;
  return response;
}

double ShardedServer::HedgeDelayMs() const {
  std::vector<double> history;
  {
    std::lock_guard<std::mutex> lock(latency_mu_);
    history = recent_latency_ms_;
  }
  if (history.empty()) return options_.hedge.min_delay_ms;
  std::sort(history.begin(), history.end());
  const size_t idx = std::min(
      history.size() - 1,
      static_cast<size_t>(kHedgeDelayQuantile *
                          static_cast<double>(history.size())));
  return std::max(history[idx], options_.hedge.min_delay_ms);
}

void ShardedServer::RecordShardLatency(double ms) {
  constexpr size_t kLatencyHistory = 128;
  std::lock_guard<std::mutex> lock(latency_mu_);
  if (recent_latency_ms_.size() < kLatencyHistory) {
    recent_latency_ms_.push_back(ms);
  } else {
    recent_latency_ms_[latency_cursor_] = ms;
    latency_cursor_ = (latency_cursor_ + 1) % kLatencyHistory;
  }
}

void ShardedServer::FoldAccounting(ShardedQueryResponse* response) {
  serve::QueryResponse& merged = response->merged;
  for (size_t s = 0; s < response->partials.size(); ++s) {
    const serve::QueryResponse& partial = response->partials[s];
    merged.epoch = std::max(merged.epoch, partial.epoch);
    merged.attributed_invocations += partial.attributed_invocations;
    merged.logical_oracle_calls += partial.logical_oracle_calls;
    merged.scheduler_cache_hits += partial.scheduler_cache_hits;
    merged.scheduler_dedup_hits += partial.scheduler_dedup_hits;
    merged.cracked_representatives += partial.cracked_representatives;
    merged.proxy_delta_rows += partial.proxy_delta_rows;
    merged.queue_wait_ms = std::max(merged.queue_wait_ms, partial.queue_wait_ms);
    const bool complete =
        s < response->shard_complete.size() && response->shard_complete[s];
    // A degraded gather already absorbed absent shards into the widened
    // interval, so their failure statuses are informational; otherwise
    // the first failure fails the whole query (legacy semantics).
    if (!response->degraded_gather && merged.status.ok() &&
        !partial.status.ok()) {
      merged.status = partial.status;
    }
    if (complete) {
      merged.degraded = merged.degraded || partial.degraded;
      merged.deadline_hit = merged.deadline_hit || partial.deadline_hit;
      merged.guarantee = std::max(merged.guarantee, partial.guarantee);
      merged.deadline_spent_ms =
          std::max(merged.deadline_spent_ms, partial.deadline_spent_ms);
      merged.deadline_budget_ms =
          std::max(merged.deadline_budget_ms, partial.deadline_budget_ms);
    }
  }
  if (response->degraded_gather) {
    merged.degraded = true;
    merged.guarantee = std::max(merged.guarantee, serve::GuaranteeLevel::kReduced);
  }
}

void ShardedServer::Drain() {
  for (auto& server : servers_) server->Drain();
}

void ShardedServer::Shutdown() {
  for (auto& server : servers_) server->Shutdown();
}

size_t ShardedServer::AppendRecords(const nn::Matrix& features) {
  std::lock_guard<std::mutex> lock(partition_mu_);
  const size_t last = num_shards() - 1;
  const size_t local_first = servers_[last]->AppendRecords(features);
  const size_t global_first = partitioner_.ToGlobal(last, local_first);
  partitioner_.ExtendLastShard(features.rows());
  return global_first;
}

serve::ServerStats ShardedServer::stats() const {
  serve::ServerStats total;
  for (const auto& server : servers_) {
    const serve::ServerStats s = server->stats();
    total.queries_submitted += s.queries_submitted;
    total.queries_completed += s.queries_completed;
    total.index_invocations += s.index_invocations;
    total.query_invocations += s.query_invocations;
    total.epochs_published += s.epochs_published;
    total.live_snapshots += s.live_snapshots;
    total.queries_shed += s.queries_shed;
    total.degraded_responses += s.degraded_responses;
    total.deadline_expired += s.deadline_expired;
    total.brownout_queries += s.brownout_queries;
    total.brownout_active = total.brownout_active || s.brownout_active;
  }
  return total;
}

std::vector<uint64_t> ShardedServer::shard_epochs() const {
  std::vector<uint64_t> epochs;
  epochs.reserve(servers_.size());
  for (const auto& server : servers_) {
    epochs.push_back(server->current_epoch());
  }
  return epochs;
}

Status ShardedServer::CheckAttributionInvariant() const {
  size_t view_invocations = 0;
  for (size_t s = 0; s < servers_.size(); ++s) {
    const Status status = servers_[s]->CheckAttributionInvariant();
    if (!status.ok()) {
      return Status::Internal("shard " + std::to_string(s) + ": " +
                              status.message());
    }
    view_invocations += views_[s]->invocations();
  }
  // Every view call forwards to exactly one oracle call (FallibleLabeler
  // counts every TryLabel), so the per-shard ledgers must tile the
  // dataset-wide count exactly.
  const size_t oracle_delta = oracle_->invocations() - baseline_invocations_;
  if (view_invocations != oracle_delta) {
    return Status::Internal(
        "cross-shard attribution mismatch: shard views saw " +
        std::to_string(view_invocations) + " calls, oracle saw " +
        std::to_string(oracle_delta));
  }
  return Status::OK();
}

Result<std::string> ShardedServer::SerializeIndex() const {
  std::string blob = "TASTI-SHARDS v1\n";
  blob += std::to_string(servers_.size());
  blob += '\n';
  for (const auto& server : servers_) {
    Result<std::string> part = server->SerializeIndex();
    if (!part.ok()) return part.status();
    blob += std::to_string(part.value().size());
    blob += '\n';
    blob += part.value();
  }
  return blob;
}

}  // namespace tasti::shard
