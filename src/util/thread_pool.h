#ifndef TASTI_UTIL_THREAD_POOL_H_
#define TASTI_UTIL_THREAD_POOL_H_

/// \file thread_pool.h
/// A small fixed-size thread pool plus blocking ParallelFor helpers.
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

  /// Exceptions that escaped a task run by this pool. The worker swallows
  /// them so the pool keeps running; ParallelFor-style batches catch their
  /// own and rethrow them on the caller, so they never count here.
  size_t exceptions_dropped() const;

  /// Process-wide shared pool, sized to hardware concurrency.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  size_t exceptions_dropped_ = 0;
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

/// Dynamic-scheduling variant: workers claim fixed-size chunks from a
/// shared atomic cursor, so skewed shards (top-k rows whose reps prune
/// unevenly) load-balance instead of waiting on the slowest static shard.
/// fn(chunk_begin, chunk_end) runs once per claimed chunk. Chunk boundaries
/// are deterministic (begin + t * chunk_size); which worker claims which
/// chunk is not.
void ParallelForDynamic(size_t begin, size_t end,
                        const std::function<void(size_t, size_t)>& fn,
                        size_t chunk_size = 1024);

/// Runs a sequence of rounds as one parallel region on the global pool and
/// blocks until it ends. Each round calls chunk(c) once for every c in
/// [0, num_chunks); once all of them have returned, end_round() runs once
/// and returns true to start the next round or false to end the region.
/// Everything one round's calls wrote is visible to the next round's calls
/// and to the caller after the return.
///
/// The caller is a participant, and at most num_threads() - 1 helpers of
/// the global pool are submitted once per region, so a region never runs
/// more participants than the pool has threads and pays one fork per
/// region, not one per round. Each participant claims chunks from its own
/// contiguous share first (so it keeps touching the same data round after
/// round) and then steals from the others'; the one that finishes a
/// round's last chunk runs end_round() and publishes the next round while
/// the others spin, then yield. Participation is dynamic, never a fixed
/// barrier: the caller can run every round alone (a helper held up behind
/// other pool work never stalls it, so two regions on different threads
/// cannot deadlock), a late helper joins the current round, and a helper
/// that starts after the region ended touches only ref-counted state.
/// Inside a pool task the region runs inline.
///
/// Which participant runs which chunk is not deterministic: chunk(c) must
/// write only state that chunk c owns, and end_round() combines it. If
/// chunk or end_round throws, the region ends after the current round and
/// the first exception is rethrown on the caller.
void ParallelRounds(size_t num_chunks,
                    const std::function<void(size_t)>& chunk,
                    const std::function<bool()>& end_round);

}  // namespace tasti

#endif  // TASTI_UTIL_THREAD_POOL_H_
