#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace tasti {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
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
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

size_t ThreadPool::exceptions_dropped() const {
  std::unique_lock<std::mutex> lock(mu_);
  return exceptions_dropped_;
}

namespace {
// An exception escaping a worker thread would std::terminate the process
// and leave in_flight_ stuck. Tasks that need their exceptions (ParallelFor
// batches) capture them inside the task; anything that still escapes is
// swallowed here, and returning true tells the worker to count it.
bool RunGuarded(const std::function<void()>& task) {
  try {
    task();
    return false;
  } catch (...) {
    return true;
  }
}
}  // namespace

void ThreadPool::WorkerLoop() {
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
    const bool dropped = RunGuarded(task);
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (dropped) ++exceptions_dropped_;
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

void ParallelForDynamic(size_t begin, size_t end,
                        const std::function<void(size_t, size_t)>& fn,
                        size_t chunk_size) {
  if (end <= begin) return;
  chunk_size = std::max<size_t>(1, chunk_size);
  const size_t n = end - begin;
  ThreadPool& pool = ThreadPool::Global();
  const size_t num_chunks = (n + chunk_size - 1) / chunk_size;
  const size_t workers = std::min(pool.num_threads(), num_chunks);
  // Nested parallelism would deadlock a fixed pool; run nested calls inline.
  if (workers <= 1 || t_inside_pool_task) {
    fn(begin, end);
    return;
  }
  std::atomic<size_t> cursor{begin};
  Latch latch(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.Submit([&fn, &latch, &cursor, end, chunk_size] {
      t_inside_pool_task = true;
      try {
        for (;;) {
          const size_t lo = cursor.fetch_add(chunk_size);
          if (lo >= end) break;
          fn(lo, std::min(end, lo + chunk_size));
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

namespace {

// One participant's home share of a round's chunks, [begin, end). Its owner
// claims from the front each round, so a participant keeps relaxing the
// same rows (they stay in its core's cache); the others steal from it only
// once their own share is gone.
struct alignas(64) RoundsSlice {
  std::atomic<size_t> next{0};  // Offset of the next unclaimed chunk.
  size_t begin = 0;
  size_t end = 0;
};

// Shared state of one ParallelRounds region. Helpers hold it by shared_ptr
// and reach the caller's callables only through a claimed chunk, which
// cannot exist once the region has ended, so a helper that starts late
// never touches the caller's (possibly gone) frame.
struct RoundsRegion {
  RoundsRegion(size_t num_chunks, size_t participants,
               const std::function<void(size_t)>& chunk_fn,
               const std::function<bool()>& end_round_fn)
      : num_chunks(num_chunks),
        num_slices(participants),
        slices(std::make_unique<RoundsSlice[]>(participants)),
        chunk(&chunk_fn),
        end_round(&end_round_fn) {
    for (size_t s = 0; s < num_slices; ++s) {
      slices[s].begin = num_chunks * s / num_slices;
      slices[s].end = num_chunks * (s + 1) / num_slices;
    }
  }

  const size_t num_chunks;
  const size_t num_slices;
  const std::unique_ptr<RoundsSlice[]> slices;
  const std::function<void(size_t)>* const chunk;
  const std::function<bool()>* const end_round;
  alignas(64) std::atomic<size_t> round{0};
  alignas(64) std::atomic<size_t> chunks_done{0};
  std::atomic<size_t> next_helper{1};  // Participant 0 is the caller.
  std::atomic<bool> ended{false};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;  // Guarded by error_mu.

  void RecordError(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (!error) error = std::move(e);
    failed.store(true, std::memory_order_relaxed);
  }

  // Runs chunk c, then, if it was the round's last, ends the round: runs
  // end_round and either ends the region (returns false) or publishes the
  // next round. Release/acquire pairs carry the data: each chunk's writes
  // reach the finisher through chunks_done, and the finisher's writes
  // reach the next round's claims through the slice cursors and `round`.
  bool RunChunk(size_t c) {
    try {
      (*chunk)(c);
    } catch (...) {
      RecordError(std::current_exception());
    }
    if (chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 < num_chunks) {
      return true;
    }
    // Every other chunk of the round has returned, so nobody else touches
    // chunks_done or a slice cursor's claimable range until publication.
    chunks_done.store(0, std::memory_order_relaxed);
    bool more = false;
    if (!failed.load(std::memory_order_relaxed)) {
      try {
        more = (*end_round)();
      } catch (...) {
        RecordError(std::current_exception());
      }
    }
    if (!more) {
      ended.store(true, std::memory_order_release);
      return false;
    }
    for (size_t s = 0; s < num_slices; ++s) {
      slices[s].next.store(0, std::memory_order_release);
    }
    round.fetch_add(1, std::memory_order_release);
    return true;
  }
};

constexpr int kRoundSpinsBeforeYield = 256;

// Claims and runs chunks, home slice first, until the region ends.
void RunRoundsParticipant(RoundsRegion& region, size_t home) {
  for (;;) {
    const size_t round = region.round.load(std::memory_order_acquire);
    for (size_t k = 0; k < region.num_slices; ++k) {
      RoundsSlice& slice = region.slices[(home + k) % region.num_slices];
      const size_t size = slice.end - slice.begin;
      while (slice.next.load(std::memory_order_relaxed) < size) {
        const size_t offset =
            slice.next.fetch_add(1, std::memory_order_acq_rel);
        if (offset >= size) break;
        if (!region.RunChunk(slice.begin + offset)) return;
      }
    }
    // Nothing left to claim in this round: wait for the next one or the end.
    for (int spins = 0;;) {
      if (region.ended.load(std::memory_order_acquire)) return;
      if (region.round.load(std::memory_order_acquire) != round) break;
      if (spins < kRoundSpinsBeforeYield) {
        ++spins;
      } else {
        std::this_thread::yield();
      }
    }
  }
}

}  // namespace

void ParallelRounds(size_t num_chunks,
                    const std::function<void(size_t)>& chunk,
                    const std::function<bool()>& end_round) {
  ThreadPool& pool = ThreadPool::Global();
  const size_t participants =
      std::min(pool.num_threads(), std::max<size_t>(1, num_chunks));
  // Nested parallelism would deadlock a fixed pool; run nested calls inline.
  if (participants <= 1 || t_inside_pool_task) {
    do {
      for (size_t c = 0; c < num_chunks; ++c) chunk(c);
    } while (end_round());
    return;
  }
  auto region = std::make_shared<RoundsRegion>(num_chunks, participants,
                                               chunk, end_round);
  for (size_t h = 1; h < participants; ++h) {
    pool.Submit([region] {
      t_inside_pool_task = true;
      RunRoundsParticipant(
          *region, region->next_helper.fetch_add(1, std::memory_order_relaxed));
      t_inside_pool_task = false;
    });
  }
  // The caller counts as inside the region: a chunk that itself asks for
  // parallelism runs inline rather than queueing behind spinning helpers.
  t_inside_pool_task = true;
  RunRoundsParticipant(*region, 0);
  t_inside_pool_task = false;
  std::lock_guard<std::mutex> lock(region->error_mu);
  if (region->error) std::rethrow_exception(region->error);
}

}  // namespace tasti
