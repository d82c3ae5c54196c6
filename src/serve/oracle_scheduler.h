#ifndef TASTI_SERVE_ORACLE_SCHEDULER_H_
#define TASTI_SERVE_ORACLE_SCHEDULER_H_

/// \file oracle_scheduler.h
/// Cross-query oracle scheduling: one shared gateway between every
/// concurrently executing query and the target labeler.
///
/// Three mechanisms cut the paper's cost metric (oracle invocations) and
/// its wall time under concurrent load:
///  - a server-wide label cache: a record annotated for one query is free
///    for every later query (the cross-query generalization of cracking);
///  - in-flight dedup: concurrent requests for one record collapse into a
///    single physical call, with every waiter handed the same result;
///  - batch dispatch: requests queued while a dispatch is in progress
///    coalesce into one batch (group-commit style), optionally widened by
///    a small time window. With parallel dispatch each record of a batch
///    runs as its own ThreadPool task that publishes its label as soon as
///    its call returns, so one slow record never holds back the rest.
///
/// LabelBatch admits many records under one lock (the index build's N1
/// training and N2 representative labels), so their calls overlap on the
/// dispatch pool instead of running one after another.
///
/// Cost attribution: every physical oracle attempt is charged to exactly
/// one context — the one whose request triggered the call (first
/// requester): a query, or the server's index build. Cache and dedup hits
/// cost their requester nothing. Summing the per-query charges plus the
/// index-construction charge therefore reproduces the inner labeler's
/// invocations() counter exactly (the serving-layer form of the QueryLog
/// attribution invariant).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/schema.h"
#include "labeler/labeler.h"
#include "util/thread_pool.h"

namespace tasti::serve {

/// Batching and dispatch policy.
struct SchedulerOptions {
  /// Most records dispatched in one batch.
  size_t max_batch = 32;
  /// Extra real time the dispatcher waits for a partial batch to fill
  /// before dispatching. 0 dispatches as soon as the dispatcher is free —
  /// coalescing then comes only from requests arriving during a previous
  /// dispatch, which keeps single-query latency at one oracle call and is
  /// the deterministic-mode default.
  double batch_window_ms = 0.0;
  /// Dispatch the records of a batch concurrently on an internal
  /// ThreadPool. Requires an inner labeler that is thread-safe AND counts
  /// exactly one invocation per TryLabel (e.g. FallibleAdapter over
  /// SimulatedLabeler, or LatencyInjectingOracle); retry wrappers like
  /// ResilientLabeler must use serial dispatch so per-call attempt counts
  /// attribute exactly.
  bool parallel_dispatch = false;
  /// Worker threads for parallel dispatch.
  size_t dispatch_threads = 8;
};

/// Per-query accounting handle. One per executing query, and one for the
/// server's index build; the scheduler's dispatch threads charge it, the
/// requesting thread reads it after its last call returns, hence the
/// atomics.
struct QueryOracleContext {
  uint64_t query_id = 0;
  /// Physical oracle attempts charged to this query (the attribution
  /// invariant's per-query term).
  std::atomic<size_t> attributed_invocations{0};
  /// TryLabel calls the query made, successful or not, free or paid.
  std::atomic<size_t> logical_calls{0};
  /// Calls answered from the server-wide label cache.
  std::atomic<size_t> cache_hits{0};
  /// Calls that piggybacked on another query's in-flight request.
  std::atomic<size_t> dedup_hits{0};
  /// Calls that failed (after the inner stack's own retries).
  std::atomic<size_t> failed_calls{0};
};

/// Point-in-time scheduler tallies.
struct SchedulerStats {
  size_t logical_requests = 0;  ///< records requested, by Label or LabelBatch
  size_t physical_calls = 0;    ///< TryLabel calls made on the inner oracle
  size_t cache_hits = 0;        ///< answered from the label cache
  size_t dedup_hits = 0;        ///< joined an in-flight request
  size_t failed_calls = 0;      ///< physical calls that returned an error
  size_t batches = 0;           ///< dispatches
  size_t max_batch_size = 0;    ///< largest single dispatch
  size_t cached_labels = 0;     ///< current label-cache size

  /// Oracle invocations the cache + dedup saved, relative to every logical
  /// request paying its own call.
  size_t saved_calls() const { return cache_hits + dedup_hits; }
};

/// The shared scheduler. Thread-safe; one instance per TastiServer.
class OracleScheduler {
 public:
  /// The inner labeler must outlive the scheduler.
  OracleScheduler(labeler::FallibleLabeler* inner, SchedulerOptions options);
  ~OracleScheduler();

  OracleScheduler(const OracleScheduler&) = delete;
  OracleScheduler& operator=(const OracleScheduler&) = delete;

  /// Labels `record` on behalf of `ctx`'s query: cache lookup, in-flight
  /// join, or batched physical call. Blocks until the result is known.
  /// `budget_ms` > 0 is the requesting query's remaining deadline; the
  /// dispatcher forwards the *first* requester's budget to the inner
  /// labeler (TryLabelWithin) so retry backoff can cap itself. Joiners
  /// inherit whatever the owner negotiated — dedup means one physical
  /// call, so only one budget can apply.
  Result<data::LabelerOutput> Label(size_t record, QueryOracleContext* ctx,
                                    double budget_ms = 0.0);

  /// Labels every record in `records` on behalf of `ctx`, one result per
  /// position in request order. Each record is admitted as by Label (cache
  /// hit, in-flight join, or enqueue; a record listed twice joins its own
  /// first request), all under one lock; the dispatcher is woken once and
  /// the call blocks until every result is known. `budget_ms` is as for
  /// Label and applies to every record this call enqueues.
  std::vector<Result<data::LabelerOutput>> LabelBatch(
      const std::vector<size_t>& records, QueryOracleContext* ctx,
      double budget_ms = 0.0);

  /// The cached label for `record`, if any query has paid for it.
  std::optional<data::LabelerOutput> CachedLabel(size_t record) const;

  SchedulerStats stats() const;

 private:
  struct Pending {
    bool done = false;
    Result<data::LabelerOutput> result = Status::Internal("pending");
    QueryOracleContext* owner = nullptr;  ///< first requester; pays the call
    double budget_ms = 0.0;  ///< owner's remaining deadline (0 = unbounded)
    std::condition_variable cv;
  };

  /// One record's admission, decided under mu_ by AdmitLocked.
  struct Admission {
    /// The cached label on a hit (points into cache_; read it under mu_).
    const data::LabelerOutput* hit = nullptr;
    /// Otherwise the in-flight entry to wait on.
    std::shared_ptr<Pending> pending;
    /// True when this request created the entry and queued the record.
    bool enqueued = false;
  };

  /// The one admission path of Label and LabelBatch: counts the request,
  /// then answers it from the cache, joins the record's in-flight entry, or
  /// queues a new entry owned by `ctx`. Caller holds mu_.
  Admission AdmitLocked(size_t record, QueryOracleContext* ctx,
                        double budget_ms);
  void DispatcherLoop();
  /// Serial dispatch: calls the inner oracle for each record in order and
  /// publishes the batch once every call has returned.
  void DispatchSerial(const std::vector<size_t>& records,
                      const std::vector<std::shared_ptr<Pending>>& pendings);
  /// Parallel dispatch: one pool task per record, each publishing its own
  /// result.
  void DispatchParallel(const std::vector<size_t>& records,
                        const std::vector<std::shared_ptr<Pending>>& pendings);
  /// Caches a successful result, retires the in-flight entry and wakes its
  /// waiters. Caller holds mu_; the caller notifies `pending->cv` after
  /// releasing it.
  void PublishLocked(size_t record, Pending* pending);

  labeler::FallibleLabeler* inner_;
  const SchedulerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  bool stopping_ = false;
  std::unordered_map<size_t, data::LabelerOutput> cache_;
  std::unordered_map<size_t, std::shared_ptr<Pending>> inflight_;
  std::deque<size_t> queue_;

  // Tallies (guarded by mu_).
  size_t logical_requests_ = 0;
  size_t physical_calls_ = 0;
  size_t cache_hits_ = 0;
  size_t dedup_hits_ = 0;
  size_t failed_calls_ = 0;
  size_t batches_ = 0;
  size_t max_batch_size_ = 0;

  // Parallel dispatch only. Its tasks publish into the state above, so it
  // is declared after that state (and destroyed, joining them, before it).
  std::unique_ptr<ThreadPool> dispatch_pool_;
  std::thread dispatcher_;
};

/// Wraps the scheduler as a per-query FallibleLabeler, so the existing
/// Try* query algorithms (and the server's index build) run unchanged
/// inside the server. invocations() reports the physical attempts
/// attributed to this context.
class ScheduledOracle : public labeler::FallibleLabeler {
 public:
  ScheduledOracle(OracleScheduler* scheduler, QueryOracleContext* ctx,
                  size_t num_records)
      : scheduler_(scheduler), ctx_(ctx), num_records_(num_records) {}

  Result<data::LabelerOutput> TryLabel(size_t index) override {
    return scheduler_->Label(index, ctx_);
  }
  Result<data::LabelerOutput> TryLabelWithin(size_t index,
                                             double budget_ms) override {
    return scheduler_->Label(index, ctx_, budget_ms);
  }
  std::vector<Result<data::LabelerOutput>> TryLabelBatch(
      const std::vector<size_t>& indices) override {
    return scheduler_->LabelBatch(indices, ctx_);
  }
  std::vector<Result<data::LabelerOutput>> TryLabelBatchWithin(
      const std::vector<size_t>& indices, double budget_ms) override {
    return scheduler_->LabelBatch(indices, ctx_, budget_ms);
  }
  size_t num_records() const override { return num_records_; }
  size_t invocations() const override {
    return ctx_->attributed_invocations.load(std::memory_order_relaxed);
  }
  void ResetInvocations() override {}

 private:
  OracleScheduler* scheduler_;
  QueryOracleContext* ctx_;
  size_t num_records_;
};

/// Adds a fixed real-time latency to every call of a wrapped oracle,
/// modeling a remote model server (Mask R-CNN behind an RPC). Thread-safe
/// when the inner labeler is; counts no invocations of its own, so the
/// inner counter stays the single source of truth.
class LatencyInjectingOracle : public labeler::FallibleLabeler {
 public:
  /// The inner labeler must outlive the wrapper.
  LatencyInjectingOracle(labeler::FallibleLabeler* inner, double latency_ms);

  Result<data::LabelerOutput> TryLabel(size_t index) override;
  size_t num_records() const override { return inner_->num_records(); }
  size_t invocations() const override { return inner_->invocations(); }
  void ResetInvocations() override { inner_->ResetInvocations(); }
  double last_call_latency_ms() const override { return latency_ms_; }

 private:
  labeler::FallibleLabeler* inner_;
  double latency_ms_;
};

}  // namespace tasti::serve

#endif  // TASTI_SERVE_ORACLE_SCHEDULER_H_
