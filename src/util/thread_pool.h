#ifndef TASTI_UTIL_THREAD_POOL_H_
#define TASTI_UTIL_THREAD_POOL_H_

/// \file thread_pool.h
/// A small fixed-size thread pool plus a blocking ParallelFor helper.
///
/// Distance computation (all-records x all-representatives) and embedding
/// inference dominate index construction time; both are embarrassingly
/// parallel over records and run through ParallelFor.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace tasti {

/// Fixed-size worker pool. Tasks are void() callables; Wait() blocks until
/// all submitted tasks have completed.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (0 means hardware
  /// concurrency, at least 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Process-wide shared pool, sized to hardware concurrency.
  static ThreadPool& Global();

 private:
  void WorkerLoop(size_t worker);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// Runs fn(begin..end) partitioned into contiguous shards across the global
/// pool and blocks until all shards complete. fn receives [shard_begin,
/// shard_end). Falls back to inline execution for small ranges.
/// If a shard throws, every shard still runs to completion and the first
/// exception is rethrown on the calling thread after the batch drains —
/// the pool itself never terminates or deadlocks. (ParallelForDynamic
/// behaves the same, except the throwing worker stops claiming chunks.)
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t, size_t)>& fn,
                 size_t min_shard_size = 1024);

/// Upper bound on the `worker` index ParallelForDynamic passes to its body.
/// Size per-worker scratch and reduction buffers to this.
size_t ParallelForMaxWorkers();

/// Dynamic-scheduling variant: workers claim fixed-size chunks from a
/// shared atomic cursor, so skewed shards (FPF tail iterations, IVF probe
/// lists) load-balance instead of waiting on the slowest static shard.
/// fn(chunk_begin, chunk_end, worker) runs once per claimed chunk; `worker`
/// in [0, ParallelForMaxWorkers()) identifies the claiming worker so
/// callers can keep per-worker reduction state (pad entries to a cache
/// line — e.g. alignas(64) — to kill false sharing). Chunk boundaries are
/// deterministic (begin + t * chunk_size); which worker claims which chunk
/// is not, so per-worker reductions must be combined order-independently.
void ParallelForDynamic(size_t begin, size_t end,
                        const std::function<void(size_t, size_t, size_t)>& fn,
                        size_t chunk_size = 1024);

}  // namespace tasti

#endif  // TASTI_UTIL_THREAD_POOL_H_
