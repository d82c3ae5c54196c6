#include "serve/oracle_scheduler.h"

#include <chrono>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/status.h"

namespace tasti::serve {

OracleScheduler::OracleScheduler(labeler::FallibleLabeler* inner,
                                 SchedulerOptions options)
    : inner_(inner), options_(options) {
  TASTI_CHECK(options_.max_batch >= 1, "max_batch must be >= 1");
  if (options_.parallel_dispatch) {
    dispatch_pool_ = std::make_unique<ThreadPool>(
        options_.dispatch_threads == 0 ? 1 : options_.dispatch_threads);
  }
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

OracleScheduler::~OracleScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

OracleScheduler::Admission OracleScheduler::AdmitLocked(
    size_t record, QueryOracleContext* ctx, double budget_ms) {
  ctx->logical_calls.fetch_add(1, std::memory_order_relaxed);
  ++logical_requests_;
  Admission admission;
  auto cached = cache_.find(record);
  if (cached != cache_.end()) {
    ++cache_hits_;
    ctx->cache_hits.fetch_add(1, std::memory_order_relaxed);
    admission.hit = &cached->second;
    return admission;
  }
  auto inflight = inflight_.find(record);
  if (inflight != inflight_.end()) {
    // Already requested (by another query, or earlier in this batch); ride
    // along.
    ++dedup_hits_;
    ctx->dedup_hits.fetch_add(1, std::memory_order_relaxed);
    admission.pending = inflight->second;
    return admission;
  }
  admission.pending = std::make_shared<Pending>();
  admission.pending->owner = ctx;
  admission.pending->budget_ms = budget_ms;
  admission.enqueued = true;
  inflight_.emplace(record, admission.pending);
  queue_.push_back(record);
  return admission;
}

Result<data::LabelerOutput> OracleScheduler::Label(size_t record,
                                                   QueryOracleContext* ctx,
                                                   double budget_ms) {
  std::shared_ptr<Pending> pending;
  {
    std::unique_lock<std::mutex> lock(mu_);
    Admission admission = AdmitLocked(record, ctx, budget_ms);
    if (admission.hit != nullptr) return *admission.hit;
    if (admission.enqueued) work_cv_.notify_one();
    pending = std::move(admission.pending);
    TASTI_SPAN("serve.oracle_wait");
    pending->cv.wait(lock, [&pending] { return pending->done; });
  }
  if (!pending->result.ok()) {
    ctx->failed_calls.fetch_add(1, std::memory_order_relaxed);
  }
  return pending->result;
}

std::vector<Result<data::LabelerOutput>> OracleScheduler::LabelBatch(
    const std::vector<size_t>& records, QueryOracleContext* ctx,
    double budget_ms) {
  std::vector<Result<data::LabelerOutput>> results(
      records.size(), Status::Internal("pending"));
  // Positions still waiting on an in-flight entry.
  std::vector<std::pair<size_t, std::shared_ptr<Pending>>> waits;
  {
    std::unique_lock<std::mutex> lock(mu_);
    bool enqueued = false;
    for (size_t i = 0; i < records.size(); ++i) {
      Admission admission = AdmitLocked(records[i], ctx, budget_ms);
      if (admission.hit != nullptr) {
        results[i] = *admission.hit;
      } else {
        enqueued |= admission.enqueued;
        waits.emplace_back(i, std::move(admission.pending));
      }
    }
    if (enqueued) work_cv_.notify_one();
    if (!waits.empty()) {
      TASTI_SPAN("serve.oracle_wait");
      for (auto& [pos, pending] : waits) {
        pending->cv.wait(lock, [&pending] { return pending->done; });
      }
    }
  }
  for (auto& [pos, pending] : waits) {
    results[pos] = pending->result;
    if (!pending->result.ok()) {
      ctx->failed_calls.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return results;
}

std::optional<data::LabelerOutput> OracleScheduler::CachedLabel(
    size_t record) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(record);
  if (it == cache_.end()) return std::nullopt;
  return it->second;
}

SchedulerStats OracleScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SchedulerStats stats;
  stats.logical_requests = logical_requests_;
  stats.physical_calls = physical_calls_;
  stats.cache_hits = cache_hits_;
  stats.dedup_hits = dedup_hits_;
  stats.failed_calls = failed_calls_;
  stats.batches = batches_;
  stats.max_batch_size = max_batch_size_;
  stats.cached_labels = cache_.size();
  return stats;
}

void OracleScheduler::DispatcherLoop() {
  for (;;) {
    std::vector<size_t> records;
    std::vector<std::shared_ptr<Pending>> pendings;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      if (options_.batch_window_ms > 0.0 && !stopping_ &&
          queue_.size() < options_.max_batch) {
        // Hold a partial batch open briefly to admit stragglers; a full
        // batch or shutdown releases it early.
        work_cv_.wait_for(
            lock,
            std::chrono::duration<double, std::milli>(options_.batch_window_ms),
            [this] { return stopping_ || queue_.size() >= options_.max_batch; });
      }
      while (!queue_.empty() && records.size() < options_.max_batch) {
        size_t record = queue_.front();
        queue_.pop_front();
        records.push_back(record);
        pendings.push_back(inflight_.at(record));
      }
      ++batches_;
      if (records.size() > max_batch_size_) max_batch_size_ = records.size();
    }
    if (options_.parallel_dispatch) {
      DispatchParallel(records, pendings);
    } else {
      DispatchSerial(records, pendings);
    }
  }
}

void OracleScheduler::PublishLocked(size_t record, Pending* pending) {
  // Failures are NOT cached so a later request may retry.
  if (pending->result.ok()) {
    cache_.emplace(record, pending->result.value());
  } else {
    ++failed_calls_;
  }
  inflight_.erase(record);
  pending->done = true;
}

void OracleScheduler::DispatchParallel(
    const std::vector<size_t>& records,
    const std::vector<std::shared_ptr<Pending>>& pendings) {
  // The inner oracle counts exactly one invocation per TryLabel (a
  // documented requirement of this mode), so each call is attributed as
  // one attempt to its owner — exact, and safe to run concurrently. The
  // dispatcher does not wait: it returns to the queue while these run.
  for (size_t i = 0; i < records.size(); ++i) {
    dispatch_pool_->Submit([this, record = records[i], pending = pendings[i]] {
      try {
        pending->result = inner_->TryLabelWithin(record, pending->budget_ms);
      } catch (...) {
        // The pool drops what escapes a task; publish a failure instead,
        // or this record's waiters would block forever.
        pending->result = Status::Internal("oracle call threw");
      }
      pending->owner->attributed_invocations.fetch_add(
          1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++physical_calls_;
        PublishLocked(record, pending.get());
      }
      pending->cv.notify_all();
    });
  }
}

void OracleScheduler::DispatchSerial(
    const std::vector<size_t>& records,
    const std::vector<std::shared_ptr<Pending>>& pendings) {
  // Measure the inner invocation counter around each call so retry
  // wrappers (one logical call = several attempts) attribute their full
  // attempt count to the owning query.
  for (size_t i = 0; i < records.size(); ++i) {
    size_t before = inner_->invocations();
    pendings[i]->result =
        inner_->TryLabelWithin(records[i], pendings[i]->budget_ms);
    size_t attempts = inner_->invocations() - before;
    pendings[i]->owner->attributed_invocations.fetch_add(
        attempts, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    physical_calls_ += attempts;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < records.size(); ++i) {
      PublishLocked(records[i], pendings[i].get());
    }
  }
  for (const auto& pending : pendings) pending->cv.notify_all();
}

LatencyInjectingOracle::LatencyInjectingOracle(labeler::FallibleLabeler* inner,
                                               double latency_ms)
    : inner_(inner), latency_ms_(latency_ms) {}

Result<data::LabelerOutput> LatencyInjectingOracle::TryLabel(size_t index) {
  if (latency_ms_ > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(latency_ms_));
  }
  return inner_->TryLabel(index);
}

}  // namespace tasti::serve
