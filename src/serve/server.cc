#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/serialize.h"
#include "labeler/resilient.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/monitor.h"

namespace tasti::serve {

namespace {

void ObserveQueueWait(double ms) {
  if (!obs::MetricsEnabled()) return;
  static obs::Histogram* const wait =
      obs::MetricsRegistry::Global().histogram(
          "serve.queue_wait_ms", obs::ExponentialBuckets(0.05, 2.0, 16), "ms");
  static obs::Counter* const queries =
      obs::MetricsRegistry::Global().counter("serve.queries", "queries");
  wait->Observe(ms);
  queries->Increment();
}

void CountShedQuery() {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter* const shed =
      obs::MetricsRegistry::Global().counter("serve.shed.queries", "queries");
  shed->Increment();
}

void CountDegradation(const QueryResponse& response) {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter* const degraded =
      obs::MetricsRegistry::Global().counter("serve.degraded.responses",
                                             "queries");
  static obs::Counter* const expired =
      obs::MetricsRegistry::Global().counter("serve.deadline.expired",
                                             "queries");
  static obs::Counter* const brownout =
      obs::MetricsRegistry::Global().counter("serve.brownout.queries",
                                             "queries");
  if (response.degraded) degraded->Increment();
  if (response.deadline_hit) expired->Increment();
  if (response.guarantee == GuaranteeLevel::kProxyOnly) brownout->Increment();
}

/// Monotonic ms for the shedder's CoDel interval timing.
double SteadyNowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TastiServer::TastiServer(const data::Dataset* dataset,
                         labeler::FallibleLabeler* oracle,
                         ServerOptions options)
    : dataset_(dataset),
      oracle_(oracle),
      options_(std::move(options)),
      score_cache_(options_.score_cache),
      shedder_(options_.degrade.shedder) {
  TASTI_CHECK(dataset_ != nullptr, "TastiServer requires a dataset");
  TASTI_CHECK(oracle_ != nullptr, "TastiServer requires an oracle");
  TASTI_CHECK(oracle_->num_records() == dataset_->size(),
              "oracle/dataset record count mismatch");
  TASTI_CHECK(options_.max_pending >= 1, "max_pending must be >= 1");
}

TastiServer::~TastiServer() { Shutdown(); }

void TastiServer::AttachMonitor(ServerMonitor* monitor) {
  std::lock_guard<std::mutex> lock(mu_);
  TASTI_CHECK(!started_, "AttachMonitor must be called before Start()");
  monitor_ = monitor;
  if (monitor_ != nullptr) monitor_->BindServer(this);
}

void TastiServer::NotifyEpochPublished() {
  if (monitor_ == nullptr) return;
  // Acquire (not the snapshot we just published) keeps this hook lock-free
  // against concurrent publishes: the monitor wants the freshest health,
  // not a specific epoch.
  std::shared_ptr<const IndexSnapshot> snapshot = epochs_.Acquire();
  if (snapshot != nullptr) monitor_->OnEpochPublish(*snapshot);
}

Status TastiServer::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return Status::FailedPrecondition("server already started");
  }
  TASTI_SPAN("serve.start");
  baseline_invocations_ = oracle_->invocations();
  WallTimer build_timer;
  // The build labels through the scheduler: its label batches overlap on
  // the dispatch pool, and every label it pays for seeds the server-wide
  // cache that queries read.
  scheduler_ = std::make_unique<OracleScheduler>(oracle_, options_.scheduler);
  QueryOracleContext build_ctx;
  ScheduledOracle scheduled(scheduler_.get(), &build_ctx, dataset_->size());
  labeler::CachingFallibleLabeler build_cache(&scheduled);
  core::TastiIndex index =
      core::TastiIndex::Build(*dataset_, &build_cache, options_.index);
  index_invocations_ = oracle_->invocations() - baseline_invocations_;
  {
    std::lock_guard<std::mutex> lock(crack_mu_);
    index_ = std::move(index);
    // Root epoch: parent 0 means no delta, but TakeDelta still resets the
    // index's dirty window so the first crack publishes an incremental one.
    PublishEpochLocked(next_epoch_++, 0);
  }
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    query_log_.RecordIndexBuild(index_invocations_, build_timer.Seconds());
  }
  if (!options_.durability.dir.empty()) {
    // The opening checkpoint persists the freshly built index, so every
    // oracle call it charged is already recoverable before the first
    // query. Failing here fails Start: the caller asked for durability.
    std::lock_guard<std::mutex> lock(crack_mu_);
    Result<std::unique_ptr<durable::DurabilityManager>> durability =
        durable::DurabilityManager::Open(options_.durability, *index_,
                                         epochs_.current_epoch());
    TASTI_RETURN_NOT_OK(durability.status());
    durability_ = std::move(*durability);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
  }
  NotifyEpochPublished();
  SpawnWorkers();
  return Status::OK();
}

void TastiServer::SpawnWorkers() {
  const size_t workers = std::max<size_t>(1, options_.num_workers);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void TastiServer::LogLocked(durable::WalRecord record, std::string* fault) {
  if (durability_ == nullptr || !fault->empty()) return;
  Status logged = durability_->Log(std::move(record));
  if (!logged.ok()) *fault = "wal append failed: " + logged.message();
}

std::string TastiServer::CommitEpochLocked(uint64_t epoch) {
  if (durability_ == nullptr) return "";
  Status committed = durability_->CommitEpoch(*index_, epoch);
  return committed.ok() ? ""
                        : "epoch " + std::to_string(epoch) +
                              " commit failed: " + committed.message();
}

durable::DurabilityStats TastiServer::durability_stats() const {
  std::lock_guard<std::mutex> lock(crack_mu_);
  return durability_ == nullptr ? durable::DurabilityStats{}
                                : durability_->stats();
}

Result<std::string> TastiServer::SerializeIndex() const {
  std::lock_guard<std::mutex> lock(crack_mu_);
  if (!index_.has_value()) {
    return Status::FailedPrecondition("no index: Start() or RecoverFrom()");
  }
  return core::IndexSerializer::SerializeToString(*index_);
}

const core::TastiIndex& TastiServer::index() const {
  TASTI_CHECK(index_.has_value(), "no index: Start() or RecoverFrom()");
  return *index_;
}

Status TastiServer::RecoverFrom(const std::string& dir_arg) {
  const std::string dir =
      dir_arg.empty() ? options_.durability.dir : dir_arg;
  if (dir.empty()) {
    return Status::InvalidArgument(
        "RecoverFrom needs a directory (argument or durability.dir)");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_ && !stopping_) {
      return Status::FailedPrecondition(
          "Shutdown() the server before RecoverFrom()");
    }
  }
  TASTI_SPAN("serve.recover");
  durable::File* fs = options_.durability.fs != nullptr
                          ? options_.durability.fs
                          : durable::DefaultFile();
  WallTimer recover_timer;
  Result<durable::RecoveredState> recovered = durable::Recover(fs, dir);
  TASTI_RETURN_NOT_OK(recovered.status());

  std::string durability_fault;
  {
    std::lock_guard<std::mutex> lock(crack_mu_);
    index_ = std::move(recovered->index);
    next_epoch_ = recovered->epoch + 1;
    {
      std::lock_guard<std::mutex> queue_lock(commit_mu_);
      commit_queue_.clear();  // an undrained deterministic wave's
    }
    // A warm restart may rewind behind ids the pre-crash instance
    // published; Reset() lets the recovered epoch be (re)published.
    epochs_.Reset();
    PublishEpochLocked(recovered->epoch, 0);
    // Cached proxy state is keyed by epoch id, and this restart will reuse
    // ids the crashed instance already published with *different* index
    // content — an explicit invalidation is the only safe restart state.
    score_cache_.Invalidate();
    durable::DurabilityOptions durability_options = options_.durability;
    durability_options.dir = dir;
    Result<std::unique_ptr<durable::DurabilityManager>> durability =
        durable::DurabilityManager::Open(
            durability_options, *index_, recovered->epoch,
            recovered->next_lsn, recovered->wal_segment,
            recovered->checkpoint_seq);
    if (durability.ok()) {
      durability_ = std::move(*durability);
    } else {
      durability_.reset();
      durability_fault =
          "durable logging disabled after recovery: " +
          durability.status().message();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.clear();
    completed_.clear();
    executing_ = 0;
    queries_completed_ = 0;
    query_invocations_ = 0;
    stopping_ = false;
  }
  // The recovered labels were paid for by the crashed instance; this
  // incarnation's attribution ledger starts clean.
  baseline_invocations_ = oracle_->invocations();
  index_invocations_ = 0;
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    query_log_ = obs::QueryLog();
    query_log_.RecordIndexBuild(0, recover_timer.Seconds());
  }
  recovery_stats_ = recovered->stats;
  // A fresh scheduler: the server-wide label cache is in-memory state the
  // crash invalidated along with everything else.
  scheduler_ = std::make_unique<OracleScheduler>(oracle_, options_.scheduler);
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
  }
  NotifyEpochPublished();
  if (monitor_ != nullptr) {
    for (const std::string& fault : recovered->stats.faults) {
      monitor_->OnFault("durability", fault);
    }
    if (!durability_fault.empty()) {
      monitor_->OnFault("durability", durability_fault);
    }
  }
  if (workers_.empty()) SpawnWorkers();
  return Status::OK();
}

Result<uint64_t> TastiServer::Submit(const QuerySpec& spec) {
  if (spec.scorer == nullptr) {
    return Status::InvalidArgument("QuerySpec requires a scorer");
  }
  if (spec.kind == QueryKind::kAggregateWhere && spec.statistic == nullptr) {
    return Status::InvalidArgument("aggregate_where requires a statistic");
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (!started_) {
    return Status::FailedPrecondition("Start() the server before submitting");
  }
  auto full = [this] {
    return queue_.size() + executing_ >= options_.max_pending;
  };
  if (stopping_) return Status::Unavailable("server shutting down");
  if (options_.degrade.shedder.enabled) {
    // Shed ahead of the blocking admission gate: an overloaded server
    // answers "retry later" immediately instead of parking the caller.
    const ShedDecision decision =
        shedder_.Admit(spec.priority, queue_.size() + executing_);
    if (!decision.admit) {
      ++queries_shed_;
      lock.unlock();
      CountShedQuery();
      if (monitor_ != nullptr) monitor_->OnShed(spec.priority, decision);
      return Status::ResourceExhausted(
          "query shed under load (priority " +
          std::string(QueryPriorityName(spec.priority)) +
          ", estimated wait " + std::to_string(decision.estimated_wait_ms) +
          " ms); retry after " + std::to_string(decision.retry_after_ms) +
          " ms");
    }
  }
  if (full()) {
    admit_cv_.wait(lock, [&] { return stopping_ || !full(); });
    if (stopping_) return Status::Unavailable("server shutting down");
  }
  PendingQuery pending;
  pending.query_id = ++next_query_id_;
  pending.spec = spec;
  const uint64_t query_id = pending.query_id;
  queue_.push_back(std::move(pending));
  const size_t depth = queue_.size();
  work_cv_.notify_one();
  lock.unlock();  // monitor hooks never run under server locks
  if (monitor_ != nullptr) monitor_->OnSubmit(depth);
  return query_id;
}

QueryResponse TastiServer::Wait(uint64_t query_id) {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return completed_.count(query_id) != 0; });
  QueryResponse response = std::move(completed_.at(query_id));
  completed_.erase(query_id);
  return response;
}

std::optional<QueryResponse> TastiServer::WaitFor(uint64_t query_id,
                                                  double timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const bool done = done_cv_.wait_for(
      lock, std::chrono::duration<double, std::milli>(std::max(0.0, timeout_ms)),
      [&] { return completed_.count(query_id) != 0; });
  if (!done) return std::nullopt;
  QueryResponse response = std::move(completed_.at(query_id));
  completed_.erase(query_id);
  return response;
}

void TastiServer::Abandon(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (completed_.erase(query_id) > 0) return;
  abandoned_.insert(query_id);
  // Cancel an executing query's deadline so it stops at its next phase
  // boundary (no-op for queries running without a deadline token — their
  // response is still discarded on completion).
  auto it = running_deadlines_.find(query_id);
  if (it != running_deadlines_.end()) it->second.Cancel();
}

QueryResponse TastiServer::Execute(const QuerySpec& spec) {
  Result<uint64_t> id = Submit(spec);
  if (!id.ok()) {
    QueryResponse response;
    response.kind = spec.kind;
    response.status = id.status();
    return response;
  }
  return Wait(*id);
}

void TastiServer::Drain() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return queue_.empty() && executing_ == 0; });
  }
  // A deterministic wave's queries only queued their mutations.
  if (options_.deterministic) Commit();
}

void TastiServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  admit_cv_.notify_all();
  const bool quiesced = !workers_.empty();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // A clean shutdown leaves a fresh checkpoint so the next Open replays an
  // empty WAL. Only after a real quiesce (first Shutdown of a running
  // server): repeated Shutdown calls must not re-checkpoint.
  std::string fault;
  {
    std::lock_guard<std::mutex> lock(crack_mu_);
    if (quiesced && durability_ != nullptr && index_.has_value() &&
        durability_->dirty_since_checkpoint()) {
      Status checkpointed =
          durability_->Checkpoint(*index_, epochs_.current_epoch());
      if (!checkpointed.ok()) {
        fault = "shutdown checkpoint failed: " + checkpointed.message();
      }
    }
  }
  if (!fault.empty() && monitor_ != nullptr) {
    monitor_->OnFault("durability", fault);
  }
}

ServerStats TastiServer::stats() const {
  ServerStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.queries_submitted = next_query_id_;  // ids are dense from 1
    stats.queries_completed = queries_completed_;
    stats.query_invocations = query_invocations_;
    stats.queries_shed = queries_shed_;
    stats.degraded_responses = degraded_responses_;
    stats.deadline_expired = deadline_expired_;
    stats.brownout_queries = brownout_queries_;
  }
  stats.brownout_active = brownout_.active();
  stats.index_invocations = index_invocations_;
  stats.epochs_published = epochs_.published();
  stats.live_snapshots = epochs_.live_snapshots();
  return stats;
}

Status TastiServer::CheckAttributionInvariant() const {
  const size_t actual = oracle_->invocations() - baseline_invocations_;
  size_t attributed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    attributed = index_invocations_ + query_invocations_;
  }
  if (actual != attributed) {
    return Status::Internal(
        "attribution invariant violated: oracle counted " +
        std::to_string(actual) + " invocations, attributed " +
        std::to_string(attributed));
  }
  return Status::OK();
}

void TastiServer::WorkerLoop() {
  for (;;) {
    PendingQuery pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
          if (stopping_) return;
          continue;
        }
        pending = std::move(queue_.front());
        // Not pop_front(): with one query queued at a time, libstdc++'s
        // pop_front() frees a deque node on this worker every few queries
        // and the next Submit allocates one on a client thread, a churn
        // that raised perfbench serve_remote's peak RSS by about 30%. A
        // one-element erase(begin()) pops from the back and keeps the node.
        queue_.erase(queue_.begin());
        ++executing_;
        break;
      }
      admit_cv_.notify_all();
    }
    pending.queue_wait_ms = pending.queued.Millis();
    ObserveQueueWait(pending.queue_wait_ms);

    QueryResponse response = RunQuery(std::move(pending));
    CountDegradation(response);
    if (options_.degrade.shedder.enabled) {
      shedder_.OnQueryDone(response.queue_wait_ms,
                           response.execute_seconds * 1000.0, SteadyNowMs());
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      --executing_;
      ++queries_completed_;
      query_invocations_ += response.attributed_invocations;
      if (response.deadline_hit) ++deadline_expired_;
      if (response.degraded) ++degraded_responses_;
      if (response.guarantee == GuaranteeLevel::kProxyOnly) {
        ++brownout_queries_;
      }
      running_deadlines_.erase(response.query_id);
      if (abandoned_.erase(response.query_id) == 0) {
        completed_.emplace(response.query_id, std::move(response));
      }
      // An abandoned query's payload is discarded, but its tallies (above)
      // and oracle attribution were already counted — the invariant ledger
      // never loses the calls it made.
    }
    done_cv_.notify_all();
    admit_cv_.notify_all();
  }
}

QueryResponse TastiServer::RunQuery(PendingQuery pending) {
  obs::SpanTotals spans;
  TASTI_SPAN("serve.query");
  const QuerySpec& spec = pending.spec;
  WallTimer exec_timer;

  std::shared_ptr<const IndexSnapshot> snapshot = epochs_.Acquire();
  const core::PropagationMode mode = spec.kind == QueryKind::kLimit
                                         ? core::PropagationMode::kLimit
                                         : core::PropagationMode::kNumeric;
  ScoreCache::Outcome proxy_outcome;
  std::shared_ptr<const core::PropagationState> proxy =
      score_cache_.GetOrCompute(*snapshot, *spec.scorer, mode, &proxy_outcome);

  // Per-query deadline token. Registered under mu_ so Abandon() can
  // cancel it while the query executes.
  Deadline deadline;
  if (spec.deadline_ms > 0) {
    deadline = options_.degrade.virtual_ms_per_call > 0
                   ? Deadline::VirtualBudget(spec.deadline_ms)
                   : Deadline::WallAfter(spec.deadline_ms);
    std::lock_guard<std::mutex> lock(mu_);
    if (abandoned_.count(pending.query_id) != 0) deadline.Cancel();
    running_deadlines_.emplace(pending.query_id, deadline);
  }

  QueryOracleContext ctx;
  ctx.query_id = pending.query_id;
  ScheduledOracle scheduled(scheduler_.get(), &ctx, dataset_->size());
  labeler::CachingFallibleLabeler cache(&scheduled);
  // Deadline enforcement sits on top of the whole oracle chain: rejected
  // calls never reach the scheduler, so they cost nothing and are never
  // attributed.
  DeadlineOracle gated(&cache, deadline, options_.degrade.virtual_ms_per_call);

  QueryResponse response;
  const bool proxy_only = options_.degrade.brownout && brownout_.active();
  if (proxy_only) {
    // Brownout: answer from proxy scores with ZERO oracle calls. The
    // guarantee downgrade is explicit in the response; nothing here can
    // fail or block on the oracle.
    brownout_.CountProxyOnlyQuery();
    std::shared_ptr<const core::PropagationState> statistic = proxy;
    if (spec.kind == QueryKind::kAggregateWhere) {
      ScoreCache::Outcome stat_outcome;
      statistic = score_cache_.GetOrCompute(
          *snapshot, *spec.statistic, core::PropagationMode::kNumeric,
          &stat_outcome);
    }
    response = AnswerFromProxy(spec, proxy->scores, statistic->scores);
  } else {
    response = ExecuteQuery(
        spec, proxy->scores, &gated,
        DeriveQuerySeed(options_.seed, pending.query_id),
        options_.confidence, deadline);
  }
  response.query_id = pending.query_id;
  response.epoch = snapshot->epoch;
  response.queue_wait_ms = pending.queue_wait_ms;
  response.proxy_source = proxy_outcome.source;
  response.proxy_delta_rows = proxy_outcome.delta_rows;
  response.deadline_budget_ms = spec.deadline_ms;

  Mutation mutation;
  mutation.query_id = pending.query_id;
  if (options_.auto_crack) {
    mutation.records = cache.labeled_indices();
    mutation.labels.reserve(mutation.records.size());
    for (size_t record : mutation.records) {
      std::optional<data::LabelerOutput> label = cache.CachedLabel(record);
      TASTI_CHECK(label.has_value(), "labeled index without a cached label");
      mutation.labels.push_back(*std::move(label));
    }
  }
  if (snapshot->num_failed_representatives > 0 && !proxy_only &&
      !response.deadline_hit) {
    // Self-healing: re-annotate failed representatives through this
    // query's context (so the calls are attributed to it) and its deadline
    // (so they cannot overrun it), but not through its label cache (so they
    // add no crack labels). Query n starts n-1 windows into the failed
    // list: a rep that keeps failing does not starve the others, and
    // queries reading one epoch ask for different reps.
    std::vector<size_t> failed;
    for (size_t pos = 0; pos < snapshot->rep_label_valid.size(); ++pos) {
      if (snapshot->rep_label_valid[pos] == 0) failed.push_back(pos);
    }
    const size_t count = std::min(kMaxRepRepairsPerQuery, failed.size());
    const size_t first =
        (pending.query_id - 1) * kMaxRepRepairsPerQuery % failed.size();
    std::vector<size_t> positions;
    std::vector<size_t> records;
    for (size_t i = 0; i < count; ++i) {
      positions.push_back(failed[(first + i) % failed.size()]);
      records.push_back(snapshot->rep_record_ids[positions.back()]);
    }
    DeadlineOracle repair_oracle(&scheduled, deadline,
                                 options_.degrade.virtual_ms_per_call);
    std::vector<Result<data::LabelerOutput>> labels =
        repair_oracle.TryLabelBatch(records);
    for (size_t i = 0; i < labels.size(); ++i) {
      if (!labels[i].ok()) continue;  // retried after a later query
      mutation.repair_positions.push_back(positions[i]);
      mutation.repair_labels.push_back(*std::move(labels[i]));
    }
  }
  if (!deadline.unbounded()) {
    response.deadline_spent_ms = deadline.spent_ms();
  }
  if (!mutation.records.empty() || !mutation.repair_positions.empty()) {
    if (options_.deterministic) {
      // Only queued: Drain() commits the wave, so its readers all stay on
      // the submit-time epoch. The response reports neither count: the
      // commit happens after it is out.
      Enqueue(std::move(mutation), nullptr);
    } else {
      TASTI_SPAN("serve.crack");
      Applied applied;
      Enqueue(std::move(mutation), &applied);
      Commit();
      response.cracked_representatives = applied.cracked;
      response.repaired_representatives = applied.repaired;
    }
  }

  response.attributed_invocations =
      ctx.attributed_invocations.load(std::memory_order_relaxed);
  response.logical_oracle_calls =
      ctx.logical_calls.load(std::memory_order_relaxed);
  response.scheduler_cache_hits = ctx.cache_hits.load(std::memory_order_relaxed);
  response.scheduler_dedup_hits = ctx.dedup_hits.load(std::memory_order_relaxed);
  response.execute_seconds = exec_timer.Seconds();

  AppendQueryRecord(response, spec, spans,
                    ctx.failed_calls.load(std::memory_order_relaxed));
  return response;
}

void TastiServer::Enqueue(Mutation mutation, Applied* applied) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  commit_queue_.push_back({std::move(mutation), applied});
}

void TastiServer::Commit() {
  TASTI_SPAN("serve.commit");
  bool published = false;
  std::string fault;
  {
    std::unique_lock<std::mutex> lock;
    {
      TASTI_SPAN("serve.crack_wait");
      lock = std::unique_lock<std::mutex>(crack_mu_);
    }
    std::vector<QueuedMutation> batch;
    {
      std::lock_guard<std::mutex> queue_lock(commit_mu_);
      batch.swap(commit_queue_);
    }
    // Appends (query id 0) in arrival order, then queries by id: the
    // representative sequence — hence the next epoch's proxies — does not
    // depend on which worker queued first. Each mutation gets its own WAL
    // records in this order, so replay re-applies exactly this sequence.
    std::stable_sort(batch.begin(), batch.end(),
                     [](const QueuedMutation& a, const QueuedMutation& b) {
                       return a.mutation.query_id < b.mutation.query_id;
                     });
    bool changed = false;
    for (QueuedMutation& queued : batch) {
      const bool append = queued.mutation.query_id == 0;
      const Applied applied = ApplyLocked(std::move(queued.mutation), &fault);
      changed |= append || applied.cracked + applied.repaired > 0;
      if (queued.applied != nullptr) *queued.applied = applied;
    }
    if (changed) {
      // One epoch whose delta against its parent spans every mutation, so
      // the score cache advances a warm scorer's state in one incremental
      // pass. Log-before-publish: once readers can see this epoch, the WAL
      // has its records and its marker synced (or durability has already
      // degraded to memory-only and raised a fault).
      const uint64_t epoch = next_epoch_++;
      if (fault.empty()) fault = CommitEpochLocked(epoch);
      PublishEpochLocked(epoch, epoch - 1);
      published = true;
    }
  }
  if (published) NotifyEpochPublished();
  if (!fault.empty() && monitor_ != nullptr) {
    monitor_->OnFault("durability", fault);
  }
}

TastiServer::Applied TastiServer::ApplyLocked(Mutation mutation,
                                              std::string* fault) {
  Applied applied;
  if (mutation.query_id == 0) {
    TASTI_CHECK(index_.has_value(), "Start() the server before appending");
    applied.first_record = index_->AppendRecords(mutation.features);
    durable::WalRecord record;
    record.type = durable::WalRecordType::kAppend;
    record.features = std::move(mutation.features);
    LogLocked(std::move(record), fault);
    return applied;
  }
  for (size_t i = 0; i < mutation.repair_positions.size(); ++i) {
    const size_t pos = mutation.repair_positions[i];
    // An earlier query of the batch, or of an earlier commit, got there
    // first.
    if (index_->rep_label_valid()[pos] != 0) continue;
    index_->RepairRepresentative(pos, mutation.repair_labels[i]);
    ++applied.repaired;
    durable::WalRecord record;
    record.type = durable::WalRecordType::kRepair;
    record.rep_pos = pos;
    record.labels = {std::move(mutation.repair_labels[i])};
    LogLocked(std::move(record), fault);
  }
  if (mutation.records.empty()) return applied;
  applied.cracked = index_->CrackFromLabels(mutation.records, mutation.labels);
  if (applied.cracked > 0) {
    durable::WalRecord record;
    record.type = durable::WalRecordType::kCrack;
    record.records.assign(mutation.records.begin(), mutation.records.end());
    record.labels = std::move(mutation.labels);
    LogLocked(std::move(record), fault);
  }
  return applied;
}

size_t TastiServer::AppendRecords(const nn::Matrix& features) {
  TASTI_SPAN("serve.append_records");
  Mutation mutation;  // query id 0: an append
  mutation.features = features;
  Applied applied;
  Enqueue(std::move(mutation), &applied);
  Commit();
  return applied.first_record;
}

void TastiServer::PublishEpochLocked(uint64_t epoch, uint64_t parent) {
  TASTI_SPAN("serve.publish");
  epochs_.Publish(
      IndexSnapshot::FromIndexAndTakeDelta(&*index_, epoch, parent));
}

void TastiServer::AppendQueryRecord(const QueryResponse& response,
                                    const QuerySpec& spec,
                                    const obs::SpanTotals& spans,
                                    size_t failed_oracle_calls) {
  const obs::QueryPhaseTimes phases = obs::PhaseTimesFromSpans(spans);

  obs::QueryRecord record;
  record.query_type = QueryKindName(response.kind);
  record.params = QueryParams(spec) +
                  " client=" + std::to_string(spec.client_id) +
                  " epoch=" + std::to_string(response.epoch);
  record.phases = phases;
  record.labeler_invocations = response.attributed_invocations;
  record.cracked_representatives = response.cracked_representatives;
  record.repaired_representatives = response.repaired_representatives;
  record.failed_oracle_calls = failed_oracle_calls;
  record.proxy_source = ProxySourceName(response.proxy_source);
  record.proxy_delta_rows = response.proxy_delta_rows;
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    query_log_.AddQuery(std::move(record));
  }
  if (monitor_ != nullptr) {
    monitor_->OnQueryComplete(response, phases, failed_oracle_calls);
  }
}

}  // namespace tasti::serve
