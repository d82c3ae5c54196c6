#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace tasti {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  size_t depth;
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
    depth = tasks_.size();
  }
  task_ready_.notify_one();
  if (obs::MetricsEnabled()) {
    static obs::Counter* const submitted =
        obs::MetricsRegistry::Global().counter("threadpool.tasks_submitted",
                                               "tasks");
    static obs::Histogram* const queue_depth =
        obs::MetricsRegistry::Global().histogram(
            "threadpool.queue_depth",
            obs::ExponentialBuckets(1.0, 2.0, 12), "tasks");
    submitted->Increment();
    queue_depth->Observe(static_cast<double>(depth));
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

namespace {
// An exception escaping a worker thread would std::terminate the process
// and leave in_flight_ stuck. Tasks that need their exceptions (ParallelFor
// batches) capture them inside the task; anything that still escapes is
// swallowed here and counted.
void RunGuarded(const std::function<void()>& task) {
  try {
    task();
  } catch (...) {
    if (obs::MetricsEnabled()) {
      static obs::Counter* const dropped =
          obs::MetricsRegistry::Global().counter(
              "threadpool.task_exceptions_dropped", "exceptions");
      dropped->Increment();
    }
  }
}
}  // namespace

void ThreadPool::WorkerLoop(size_t worker) {
  // Instrument pointers resolve lazily (metrics may be enabled after the
  // pool spins up) and are cached per worker thread; registry instruments
  // are never destroyed, so the cached pointers cannot dangle.
  obs::Counter* busy_micros = nullptr;
  obs::Counter* total_busy = nullptr;
  obs::Counter* completed = nullptr;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    if (obs::MetricsEnabled()) {
      if (busy_micros == nullptr) {
        obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
        busy_micros = registry.counter(
            "threadpool.worker." + std::to_string(worker) + ".busy_micros",
            "micros");
        total_busy = registry.counter("threadpool.busy_micros", "micros");
        completed = registry.counter("threadpool.tasks_completed", "tasks");
      }
      const auto start = std::chrono::steady_clock::now();
      RunGuarded(task);
      const auto micros = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
      busy_micros->Increment(micros);
      total_busy->Increment(micros);
      completed->Increment();
    } else {
      RunGuarded(task);
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

namespace {
// Per-call completion latch so that concurrent ParallelFor invocations (or
// invocations from within pool tasks) never observe each other's work.
// Also collects the first exception a shard throws: every shard still runs
// to completion (counts down), and the caller rethrows after Wait() — the
// batch fails without terminating the process or deadlocking the latch.
struct Latch {
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining;
  std::exception_ptr error;
  explicit Latch(size_t n) : remaining(n) {}
  void CountDown() {
    std::unique_lock<std::mutex> lock(mu);
    if (--remaining == 0) cv.notify_all();
  }
  void RecordError(std::exception_ptr e) {
    std::unique_lock<std::mutex> lock(mu);
    if (!error) error = std::move(e);
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return remaining == 0; });
  }
  void RethrowIfError() {
    // No lock: Wait() already synchronized with every CountDown().
    if (error) std::rethrow_exception(error);
  }
};

thread_local bool t_inside_pool_task = false;
}  // namespace

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t, size_t)>& fn,
                 size_t min_shard_size) {
  if (end <= begin) return;
  const size_t n = end - begin;
  ThreadPool& pool = ThreadPool::Global();
  const size_t max_shards = pool.num_threads() * 4;
  size_t shards = std::min(max_shards, (n + min_shard_size - 1) / min_shard_size);
  // Nested parallelism would deadlock a fixed pool; run nested calls inline.
  if (shards <= 1 || t_inside_pool_task) {
    fn(begin, end);
    return;
  }
  const size_t chunk = (n + shards - 1) / shards;
  const size_t actual_shards = (n + chunk - 1) / chunk;
  Latch latch(actual_shards);
  for (size_t s = 0; s < actual_shards; ++s) {
    const size_t lo = begin + s * chunk;
    const size_t hi = std::min(end, lo + chunk);
    pool.Submit([&fn, &latch, lo, hi] {
      t_inside_pool_task = true;
      try {
        fn(lo, hi);
      } catch (...) {
        latch.RecordError(std::current_exception());
      }
      t_inside_pool_task = false;
      latch.CountDown();
    });
  }
  latch.Wait();
  latch.RethrowIfError();
}

size_t ParallelForMaxWorkers() { return ThreadPool::Global().num_threads(); }

void ParallelForDynamic(size_t begin, size_t end,
                        const std::function<void(size_t, size_t, size_t)>& fn,
                        size_t chunk_size) {
  if (end <= begin) return;
  chunk_size = std::max<size_t>(1, chunk_size);
  const size_t n = end - begin;
  ThreadPool& pool = ThreadPool::Global();
  const size_t num_chunks = (n + chunk_size - 1) / chunk_size;
  const size_t workers = std::min(pool.num_threads(), num_chunks);
  // Nested parallelism would deadlock a fixed pool; run nested calls inline.
  if (workers <= 1 || t_inside_pool_task) {
    fn(begin, end, 0);
    return;
  }
  std::atomic<size_t> cursor{begin};
  Latch latch(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.Submit([&fn, &latch, &cursor, begin, end, chunk_size, w] {
      t_inside_pool_task = true;
      try {
        for (;;) {
          const size_t lo = cursor.fetch_add(chunk_size);
          if (lo >= end) break;
          fn(lo, std::min(end, lo + chunk_size), w);
        }
      } catch (...) {
        // Stop claiming chunks; other workers drain the range.
        latch.RecordError(std::current_exception());
      }
      t_inside_pool_task = false;
      latch.CountDown();
    });
  }
  latch.Wait();
  latch.RethrowIfError();
}

}  // namespace tasti
