// Tests for serve/: epoch snapshots and reclamation, cross-query oracle
// scheduling (dedup, caching, batching, attribution), admission control,
// deterministic-mode reproducibility of the TastiServer, and its parity
// with a naive replay of the session path. Run under
// TSan in check.sh's tsan stage — the concurrency claims here (no torn
// snapshot reads, racing cracks against readers) are exactly what a data
// race would break.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/session.h"
#include "obs/live.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "serve/monitor.h"
#include "core/index.h"
#include "core/propagation.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "core/serialize.h"
#include "data/dataset.h"
#include "labeler/faults.h"
#include "labeler/label_codec.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"
#include "serve/oracle_scheduler.h"
#include "serve/score_cache.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "queries/aggregation.h"
#include "queries/limit.h"
#include "queries/noguarantee.h"
#include "queries/predicate_aggregation.h"
#include "queries/supg.h"
#include "serve/deadline.h"
#include "util/random.h"

namespace tasti::serve {
namespace {

data::Dataset TestDataset(size_t n = 2000, uint64_t seed = 71) {
  data::DatasetOptions opts;
  opts.num_records = n;
  opts.seed = seed;
  return data::MakeNightStreet(opts);
}

ServerOptions FastServerOptions() {
  ServerOptions opts;
  opts.index.num_training_records = 150;
  opts.index.num_representatives = 150;
  opts.index.embedding_dim = 32;
  opts.index.hidden_dim = 64;
  opts.index.epochs = 10;
  opts.num_workers = 4;
  opts.seed = 72;
  return opts;
}

/// Holds every call open for `hold_ms` so concurrent requests for the same
/// record pile up behind the dispatcher (exercising in-flight dedup), and
/// fails the first `fail_first` calls per record (exercising the
/// failures-are-not-cached rule). Thread-safe.
class SlowFlakyOracle : public labeler::FallibleLabeler {
 public:
  SlowFlakyOracle(const data::Dataset* dataset, double hold_ms,
                  size_t fail_first = 0)
      : dataset_(dataset), hold_ms_(hold_ms), fail_first_(fail_first),
        calls_per_record_(dataset->size()) {}

  Result<data::LabelerOutput> TryLabel(size_t index) override {
    invocations_.fetch_add(1, std::memory_order_relaxed);
    if (hold_ms_ > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(hold_ms_));
    }
    const size_t nth =
        calls_per_record_[index].fetch_add(1, std::memory_order_relaxed);
    if (nth < fail_first_) {
      return Status::Unavailable("injected transient failure");
    }
    return dataset_->ground_truth[index];
  }
  size_t num_records() const override { return dataset_->size(); }
  size_t invocations() const override {
    return invocations_.load(std::memory_order_relaxed);
  }
  void ResetInvocations() override {
    invocations_.store(0, std::memory_order_relaxed);
  }

 private:
  const data::Dataset* dataset_;
  double hold_ms_;
  size_t fail_first_;
  std::vector<std::atomic<size_t>> calls_per_record_;
  std::atomic<size_t> invocations_{0};
};

/// Byte encoding of a label, for equality checks.
std::string LabelBytes(const data::LabelerOutput& label) {
  std::string out;
  labeler::EncodeLabel(&out, label);
  return out;
}

/// Per-record latency: `slow_record` blocks until `Release()` (or a 5 s
/// safety timeout), every other record answers at once. Counts one
/// invocation per call. Thread-safe.
class GatedOracle : public labeler::FallibleLabeler {
 public:
  GatedOracle(const data::Dataset* dataset, size_t slow_record)
      : dataset_(dataset), slow_record_(slow_record),
        gate_(release_.get_future().share()) {}

  Result<data::LabelerOutput> TryLabel(size_t index) override {
    invocations_.fetch_add(1, std::memory_order_relaxed);
    if (index == slow_record_) {
      gate_.wait_for(std::chrono::seconds(5));
      slow_finished_.store(true);
    }
    return dataset_->ground_truth[index];
  }
  size_t num_records() const override { return dataset_->size(); }
  size_t invocations() const override {
    return invocations_.load(std::memory_order_relaxed);
  }
  void ResetInvocations() override { invocations_.store(0); }

  void Release() { release_.set_value(); }
  bool slow_finished() const { return slow_finished_.load(); }

 private:
  const data::Dataset* dataset_;
  size_t slow_record_;
  std::promise<void> release_;
  std::shared_future<void> gate_;
  std::atomic<size_t> invocations_{0};
  std::atomic<bool> slow_finished_{false};
};

// --- OracleScheduler ---

TEST(OracleSchedulerTest, ConcurrentIdenticalRequestsCollapseToOneCall) {
  data::Dataset ds = TestDataset(64);
  SlowFlakyOracle oracle(&ds, /*hold_ms=*/20.0);
  OracleScheduler scheduler(&oracle, {});

  constexpr size_t kThreads = 6;
  std::vector<QueryOracleContext> ctxs(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    ctxs[t].query_id = t + 1;
    threads.emplace_back([&scheduler, &ctxs, t] {
      Result<data::LabelerOutput> r = scheduler.Label(7, &ctxs[t]);
      EXPECT_TRUE(r.ok());
    });
  }
  for (std::thread& thread : threads) thread.join();

  // One physical call serves all six queries; the rest rode the in-flight
  // entry or the cache.
  EXPECT_EQ(oracle.invocations(), 1u);
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.physical_calls, 1u);
  EXPECT_EQ(stats.logical_requests, kThreads);
  EXPECT_EQ(stats.cache_hits + stats.dedup_hits, kThreads - 1);
  // The call is attributed to exactly one query.
  size_t attributed = 0;
  for (const QueryOracleContext& ctx : ctxs) {
    attributed += ctx.attributed_invocations.load();
  }
  EXPECT_EQ(attributed, 1u);
}

TEST(OracleSchedulerTest, CacheMakesLaterQueriesFree) {
  data::Dataset ds = TestDataset(64);
  SlowFlakyOracle oracle(&ds, 0.0);
  OracleScheduler scheduler(&oracle, {});

  QueryOracleContext first, second;
  first.query_id = 1;
  second.query_id = 2;
  ASSERT_TRUE(scheduler.Label(3, &first).ok());
  ASSERT_TRUE(scheduler.Label(3, &second).ok());

  EXPECT_EQ(oracle.invocations(), 1u);
  EXPECT_EQ(first.attributed_invocations.load(), 1u);
  EXPECT_EQ(second.attributed_invocations.load(), 0u);
  EXPECT_EQ(second.cache_hits.load(), 1u);
  EXPECT_TRUE(scheduler.CachedLabel(3).has_value());
  EXPECT_FALSE(scheduler.CachedLabel(4).has_value());
}

TEST(OracleSchedulerTest, FailedCallsAreNotCachedAndRetry) {
  data::Dataset ds = TestDataset(64);
  SlowFlakyOracle oracle(&ds, 0.0, /*fail_first=*/1);
  OracleScheduler scheduler(&oracle, {});

  QueryOracleContext ctx;
  ctx.query_id = 1;
  Result<data::LabelerOutput> r1 = scheduler.Label(5, &ctx);
  EXPECT_FALSE(r1.ok());
  EXPECT_FALSE(scheduler.CachedLabel(5).has_value());
  EXPECT_EQ(ctx.failed_calls.load(), 1u);

  Result<data::LabelerOutput> r2 = scheduler.Label(5, &ctx);
  EXPECT_TRUE(r2.ok());
  EXPECT_EQ(oracle.invocations(), 2u);
  EXPECT_EQ(ctx.attributed_invocations.load(), 2u);
}

TEST(OracleSchedulerTest, DistinctRecordsCoalesceIntoBatches) {
  data::Dataset ds = TestDataset(128);
  SlowFlakyOracle oracle(&ds, /*hold_ms=*/5.0);
  SchedulerOptions options;
  options.max_batch = 8;
  OracleScheduler scheduler(&oracle, options);

  constexpr size_t kThreads = 12;
  std::vector<QueryOracleContext> ctxs(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    ctxs[t].query_id = t + 1;
    threads.emplace_back([&scheduler, &ctxs, t] {
      EXPECT_TRUE(scheduler.Label(t, &ctxs[t]).ok());
    });
  }
  for (std::thread& thread : threads) thread.join();

  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.physical_calls, kThreads);  // all records distinct
  EXPECT_LE(stats.max_batch_size, options.max_batch);
  EXPECT_GE(stats.batches, (kThreads + options.max_batch - 1) /
                               options.max_batch);
}

TEST(OracleSchedulerTest, ParallelDispatchPreservesAttribution) {
  data::Dataset ds = TestDataset(128);
  labeler::SimulatedLabeler truth(&ds);
  labeler::FallibleAdapter adapter(&truth);
  LatencyInjectingOracle slow(&adapter, /*latency_ms=*/2.0);
  SchedulerOptions options;
  options.parallel_dispatch = true;
  options.dispatch_threads = 4;
  OracleScheduler scheduler(&slow, options);

  constexpr size_t kThreads = 10;
  std::vector<QueryOracleContext> ctxs(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    ctxs[t].query_id = t + 1;
    threads.emplace_back([&scheduler, &ctxs, t] {
      EXPECT_TRUE(scheduler.Label(2 * t, &ctxs[t]).ok());
    });
  }
  for (std::thread& thread : threads) thread.join();

  size_t attributed = 0;
  for (const QueryOracleContext& ctx : ctxs) {
    attributed += ctx.attributed_invocations.load();
  }
  EXPECT_EQ(attributed, truth.invocations());
}

TEST(OracleSchedulerTest, LabelBatchMatchesLabel) {
  data::Dataset ds = TestDataset(64);
  const std::vector<size_t> records = {3, 5, 3, 9};

  // Reference: one Label per record, in order.
  SlowFlakyOracle single_oracle(&ds, 0.0);
  OracleScheduler single(&single_oracle, {});
  QueryOracleContext single_ctx;
  std::vector<std::string> want;
  for (size_t record : records) {
    Result<data::LabelerOutput> r = single.Label(record, &single_ctx);
    ASSERT_TRUE(r.ok());
    want.push_back(LabelBytes(*r));
  }

  SlowFlakyOracle batch_oracle(&ds, 0.0);
  OracleScheduler batched(&batch_oracle, {});
  QueryOracleContext batch_ctx;
  std::vector<Result<data::LabelerOutput>> got =
      batched.LabelBatch(records, &batch_ctx);
  ASSERT_EQ(got.size(), records.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].ok());
    EXPECT_EQ(LabelBytes(*got[i]), want[i]) << "position " << i;
  }
  // The duplicate 3 rides its own first request: one call per distinct
  // record, attributed exactly as the per-record calls were.
  EXPECT_EQ(batch_oracle.invocations(), 3u);
  EXPECT_EQ(single_oracle.invocations(), 3u);
  EXPECT_EQ(batch_ctx.attributed_invocations.load(),
            single_ctx.attributed_invocations.load());
  EXPECT_EQ(batch_ctx.logical_calls.load(), single_ctx.logical_calls.load());
  const SchedulerStats stats = batched.stats();
  EXPECT_EQ(stats.logical_requests, records.size());
  EXPECT_EQ(stats.physical_calls, 3u);
  EXPECT_EQ(stats.dedup_hits, 1u);
  EXPECT_EQ(stats.cached_labels, 3u);
  // A second batch is all cache hits and costs nothing.
  QueryOracleContext later;
  batched.LabelBatch({9, 5}, &later);
  EXPECT_EQ(later.cache_hits.load(), 2u);
  EXPECT_EQ(later.attributed_invocations.load(), 0u);
  EXPECT_EQ(batch_oracle.invocations(), 3u);
}

TEST(OracleSchedulerTest, LabelOfABatchedRecordJoinsTheBatch) {
  data::Dataset ds = TestDataset(64);
  SlowFlakyOracle oracle(&ds, /*hold_ms=*/100.0);
  OracleScheduler scheduler(&oracle, {});

  QueryOracleContext batch_ctx;
  std::thread batch([&] {
    for (const auto& r : scheduler.LabelBatch({10, 11}, &batch_ctx)) {
      EXPECT_TRUE(r.ok());
    }
  });
  // Wait until the batch is admitted; its serial dispatch then holds
  // record 10 in flight for at least 200 ms.
  while (scheduler.stats().logical_requests < 2) std::this_thread::yield();
  QueryOracleContext query;
  EXPECT_TRUE(scheduler.Label(10, &query).ok());
  batch.join();

  EXPECT_EQ(query.dedup_hits.load(), 1u);
  EXPECT_EQ(query.attributed_invocations.load(), 0u);
  EXPECT_EQ(batch_ctx.attributed_invocations.load(), 2u);
  EXPECT_EQ(oracle.invocations(), 2u);
}

TEST(OracleSchedulerTest, LabelBatchDoesNotCacheFailures) {
  data::Dataset ds = TestDataset(64);
  SlowFlakyOracle oracle(&ds, 0.0, /*fail_first=*/1);
  OracleScheduler scheduler(&oracle, {});

  QueryOracleContext ctx;
  std::vector<Result<data::LabelerOutput>> first =
      scheduler.LabelBatch({20, 21}, &ctx);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_FALSE(first[0].ok());
  EXPECT_FALSE(first[1].ok());
  EXPECT_EQ(ctx.failed_calls.load(), 2u);
  EXPECT_FALSE(scheduler.CachedLabel(20).has_value());
  EXPECT_EQ(scheduler.stats().failed_calls, 2u);

  std::vector<Result<data::LabelerOutput>> second =
      scheduler.LabelBatch({20, 21}, &ctx);
  EXPECT_TRUE(second[0].ok());
  EXPECT_TRUE(second[1].ok());
  EXPECT_EQ(oracle.invocations(), 4u);
  EXPECT_EQ(ctx.attributed_invocations.load(), 4u);
  EXPECT_TRUE(scheduler.CachedLabel(20).has_value());
}

TEST(OracleSchedulerTest, ParallelDispatchPublishesEachLabelOnReturn) {
  data::Dataset ds = TestDataset(64);
  constexpr size_t kSlow = 1;
  constexpr size_t kFast = 2;
  GatedOracle oracle(&ds, kSlow);
  SchedulerOptions options;
  options.parallel_dispatch = true;
  options.dispatch_threads = 2;
  // Hold the first request open until the second joins it, so both are
  // dispatched as one batch.
  options.max_batch = 2;
  options.batch_window_ms = 2000.0;
  OracleScheduler scheduler(&oracle, options);

  QueryOracleContext slow_ctx, fast_ctx;
  std::thread slow([&] { EXPECT_TRUE(scheduler.Label(kSlow, &slow_ctx).ok()); });
  std::thread fast([&] { EXPECT_TRUE(scheduler.Label(kFast, &fast_ctx).ok()); });
  // The fast record's waiter returns while the slow call is still held.
  fast.join();
  EXPECT_FALSE(oracle.slow_finished());
  EXPECT_TRUE(scheduler.CachedLabel(kFast).has_value());
  EXPECT_FALSE(scheduler.CachedLabel(kSlow).has_value());
  oracle.Release();
  slow.join();

  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.max_batch_size, 2u);
  EXPECT_EQ(stats.physical_calls, 2u);
  EXPECT_EQ(slow_ctx.attributed_invocations.load() +
                fast_ctx.attributed_invocations.load(),
            oracle.invocations());
}

TEST(OracleSchedulerTest, ParallelDispatchTurnsAThrowIntoAFailedLabel) {
  data::Dataset ds = TestDataset(64);
  /// Throws on every call, as an oracle client might on a broken reply.
  class ThrowingOracle : public labeler::FallibleLabeler {
   public:
    explicit ThrowingOracle(size_t n) : n_(n) {}
    Result<data::LabelerOutput> TryLabel(size_t) override {
      throw std::runtime_error("broken reply");
    }
    size_t num_records() const override { return n_; }
    size_t invocations() const override { return 0; }
    void ResetInvocations() override {}

   private:
    size_t n_;
  };
  ThrowingOracle oracle(ds.size());
  SchedulerOptions options;
  options.parallel_dispatch = true;
  options.dispatch_threads = 2;
  OracleScheduler scheduler(&oracle, options);

  QueryOracleContext ctx;
  Result<data::LabelerOutput> r = scheduler.Label(4, &ctx);
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(ctx.failed_calls.load(), 1u);
  EXPECT_FALSE(scheduler.CachedLabel(4).has_value());
}

// --- Snapshots & epochs ---

TEST(SnapshotTest, PublishRequiresNewerEpochAndTracksLiveness) {
  data::Dataset ds = TestDataset(400);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  core::IndexOptions index_opts = FastServerOptions().index;
  index_opts.num_representatives = 60;
  index_opts.num_training_records = 60;
  core::TastiIndex index = core::TastiIndex::Build(ds, &adapter, index_opts);

  EpochManager epochs;
  EXPECT_EQ(epochs.current_epoch(), 0u);
  EXPECT_EQ(epochs.Acquire(), nullptr);

  epochs.Publish(IndexSnapshot::FromIndex(index, 1));
  std::shared_ptr<const IndexSnapshot> pinned = epochs.Acquire();
  ASSERT_NE(pinned, nullptr);
  EXPECT_TRUE(pinned->CheckConsistent().ok());
  EXPECT_EQ(epochs.live_snapshots(), 1u);

  index.AddRepresentative(0, ds.ground_truth[0]);
  epochs.Publish(IndexSnapshot::FromIndex(index, 2));
  // The retired epoch stays alive while `pinned` holds it.
  EXPECT_EQ(epochs.live_snapshots(), 2u);
  EXPECT_EQ(epochs.current_epoch(), 2u);
  EXPECT_EQ(pinned->epoch, 1u);
  pinned.reset();
  EXPECT_EQ(epochs.live_snapshots(), 1u);
  EXPECT_EQ(epochs.published(), 2u);
}

TEST(ServerTest, ConcurrentQueriesRacingCracksSeeConsistentSnapshots) {
  data::Dataset ds = TestDataset(1500);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = FastServerOptions();
  TastiServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());

  // A reader thread hammers Acquire + CheckConsistent while queries crack
  // the index and publish new epochs underneath it.
  std::atomic<bool> stop{false};
  std::atomic<size_t> checked{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::shared_ptr<const IndexSnapshot> snapshot = server.epochs().Acquire();
      ASSERT_NE(snapshot, nullptr);
      ASSERT_TRUE(snapshot->CheckConsistent().ok());
      checked.fetch_add(1, std::memory_order_relaxed);
    }
  });

  core::CountScorer cars(data::ObjectClass::kCar);
  core::PresenceScorer present(data::ObjectClass::kCar);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    QuerySpec spec;
    if (i % 2 == 0) {
      spec.kind = QueryKind::kAggregate;
      spec.scorer = &cars;
      spec.error_target = 0.15;
    } else {
      spec.kind = QueryKind::kSupgRecall;
      spec.scorer = &present;
      spec.target = 0.9;
      spec.budget = 150;
    }
    spec.client_id = i % 3;
    Result<uint64_t> id = server.Submit(spec);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (uint64_t id : ids) {
    QueryResponse response = server.Wait(id);
    EXPECT_TRUE(response.status.ok());
  }
  server.Drain();
  stop.store(true);
  reader.join();
  EXPECT_GT(checked.load(), 0u);
  // Cracking published new epochs, and retired ones were reclaimed once
  // their readers drained.
  EXPECT_GT(server.stats().epochs_published, 1u);
  EXPECT_EQ(server.live_snapshots(), 1u);
}

// --- TastiServer ---

TEST(ServerTest, AttributionInvariantHoldsAcrossConcurrentQueries) {
  data::Dataset ds = TestDataset(1500);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = FastServerOptions();
  TastiServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());

  core::CountScorer cars(data::ObjectClass::kCar);
  core::PresenceScorer present(data::ObjectClass::kCar);
  core::AtLeastCountScorer busy(data::ObjectClass::kCar, 2);
  std::vector<QuerySpec> specs;
  for (int round = 0; round < 2; ++round) {
    QuerySpec agg;
    agg.kind = QueryKind::kAggregate;
    agg.scorer = &cars;
    agg.error_target = 0.15;
    specs.push_back(agg);
    QuerySpec supg;
    supg.kind = QueryKind::kSupgRecall;
    supg.scorer = &present;
    supg.target = 0.9;
    supg.budget = 120;
    specs.push_back(supg);
    QuerySpec limit;
    limit.kind = QueryKind::kLimit;
    limit.scorer = &busy;
    limit.want = 4;
    specs.push_back(limit);
  }
  std::vector<uint64_t> ids;
  for (const QuerySpec& spec : specs) {
    Result<uint64_t> id = server.Submit(spec);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  size_t query_invocations = 0;
  for (uint64_t id : ids) {
    QueryResponse response = server.Wait(id);
    EXPECT_TRUE(response.status.ok());
    query_invocations += response.attributed_invocations;
  }
  server.Drain();

  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
  EXPECT_EQ(server.index_invocations() + query_invocations,
            oracle.invocations());
  // The query log carries the same ledger.
  EXPECT_EQ(server.query_log().total_invocations(), oracle.invocations());
  // Sharing must have saved something: queries overlap records (reps,
  // popular samples), so logical requests exceed physical calls.
  SchedulerStats sched = server.scheduler_stats();
  EXPECT_GT(sched.saved_calls(), 0u);
  EXPECT_LT(sched.physical_calls, sched.logical_requests);
}

// Start() builds through the scheduler (batched labels, and with parallel
// dispatch overlapping calls). The index must be the one the parent path —
// Build over a CachingFallibleLabeler on the raw oracle — produces, at the
// same oracle cost, and the build's labels must seed the label cache.
TEST(ServerTest, BuildThroughSchedulerMatchesDirectBuild) {
  data::Dataset ds = TestDataset(1500);
  const ServerOptions base = FastServerOptions();

  labeler::SimulatedLabeler direct_truth(&ds);
  labeler::FallibleAdapter direct_adapter(&direct_truth);
  labeler::CachingFallibleLabeler direct_cache(&direct_adapter);
  const core::TastiIndex direct =
      core::TastiIndex::Build(ds, &direct_cache, base.index);
  Result<std::string> direct_bytes =
      core::IndexSerializer::SerializeToString(direct);
  ASSERT_TRUE(direct_bytes.ok());

  for (bool parallel : {true, false}) {
    SCOPED_TRACE(parallel ? "parallel dispatch" : "serial dispatch");
    labeler::SimulatedLabeler truth(&ds);
    labeler::FallibleAdapter adapter(&truth);
    ServerOptions opts = base;
    opts.scheduler.parallel_dispatch = parallel;
    opts.scheduler.dispatch_threads = 4;
    TastiServer server(&ds, &adapter, opts);
    ASSERT_TRUE(server.Start().ok());
    Result<std::string> bytes = server.SerializeIndex();
    ASSERT_TRUE(bytes.ok());
    EXPECT_TRUE(*bytes == *direct_bytes) << "index bytes differ";
    EXPECT_EQ(server.index_invocations(), direct_truth.invocations());
    const SchedulerStats sched = server.scheduler_stats();
    EXPECT_EQ(sched.cached_labels, direct_cache.labeled_indices().size());
    EXPECT_EQ(sched.physical_calls, server.index_invocations());
    EXPECT_TRUE(server.CheckAttributionInvariant().ok());
  }

  // Faults: the serial scheduler calls the oracle stack in the direct
  // build's order, so retries, jitter and permanent failures line up and
  // the same representatives fail.
  labeler::FaultSchedule faults;
  faults.permanent_rate = 0.05;
  faults.transient_rate = 0.1;
  faults.seed = 19;
  auto degraded_build = [&](bool served, size_t* invocations) {
    labeler::SimulatedLabeler truth(&ds);
    labeler::FaultInjectingLabeler injected(&truth, faults);
    labeler::ResilientLabeler oracle(&injected, {});
    std::string bytes;
    if (served) {
      ServerOptions opts = base;
      opts.scheduler.parallel_dispatch = false;
      TastiServer server(&ds, &oracle, opts);
      EXPECT_TRUE(server.Start().ok());
      bytes = server.SerializeIndex().value();
      EXPECT_EQ(server.index_invocations(), injected.invocations());
      EXPECT_TRUE(server.CheckAttributionInvariant().ok());
    } else {
      labeler::CachingFallibleLabeler cache(&oracle);
      bytes = core::IndexSerializer::SerializeToString(
                  core::TastiIndex::Build(ds, &cache, base.index))
                  .value();
    }
    *invocations = injected.invocations();
    return bytes;
  };
  size_t direct_calls = 0, served_calls = 0;
  const std::string want = degraded_build(false, &direct_calls);
  const std::string got = degraded_build(true, &served_calls);
  Result<core::TastiIndex> want_index =
      core::IndexSerializer::DeserializeFromString(want);
  Result<core::TastiIndex> got_index =
      core::IndexSerializer::DeserializeFromString(got);
  ASSERT_TRUE(want_index.ok() && got_index.ok());
  EXPECT_GT(want_index->num_failed_representatives(), 0u);
  EXPECT_EQ(got_index->failed_rep_record_ids(),
            want_index->failed_rep_record_ids());
  EXPECT_TRUE(got == want) << "degraded index bytes differ";
  EXPECT_EQ(served_calls, direct_calls);
}

TEST(ServerTest, DeterministicModeIsBitIdenticalAcrossWorkerCounts) {
  data::Dataset ds = TestDataset(1500);

  auto run = [&ds](size_t workers) {
    labeler::SimulatedLabeler oracle(&ds);
    labeler::FallibleAdapter adapter(&oracle);
    ServerOptions opts = FastServerOptions();
    opts.deterministic = true;
    opts.num_workers = workers;
    TastiServer server(&ds, &adapter, opts);
    EXPECT_TRUE(server.Start().ok());

    static core::CountScorer cars(data::ObjectClass::kCar);
    static core::PresenceScorer present(data::ObjectClass::kCar);
    static core::AtLeastCountScorer busy(data::ObjectClass::kCar, 2);
    std::vector<QuerySpec> specs;
    QuerySpec agg;
    agg.kind = QueryKind::kAggregate;
    agg.scorer = &cars;
    agg.error_target = 0.15;
    specs.push_back(agg);
    QuerySpec recall;
    recall.kind = QueryKind::kSupgRecall;
    recall.scorer = &present;
    recall.target = 0.9;
    recall.budget = 120;
    specs.push_back(recall);
    QuerySpec precision;
    precision.kind = QueryKind::kSupgPrecision;
    precision.scorer = &present;
    precision.target = 0.8;
    precision.budget = 120;
    specs.push_back(precision);
    QuerySpec select;
    select.kind = QueryKind::kThresholdSelect;
    select.scorer = &present;
    select.validation_budget = 80;
    specs.push_back(select);
    QuerySpec limit;
    limit.kind = QueryKind::kLimit;
    limit.scorer = &busy;
    limit.want = 4;
    specs.push_back(limit);

    std::vector<uint64_t> ids;
    for (const QuerySpec& spec : specs) {
      Result<uint64_t> id = server.Submit(spec);
      EXPECT_TRUE(id.ok());
      ids.push_back(*id);
    }
    std::vector<QueryResponse> responses;
    for (uint64_t id : ids) responses.push_back(server.Wait(id));
    server.Drain();
    return responses;
  };

  std::vector<QueryResponse> serial = run(1);
  std::vector<QueryResponse> parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    const QueryResponse& a = serial[i];
    const QueryResponse& b = parallel[i];
    EXPECT_TRUE(a.status.ok());
    EXPECT_TRUE(b.status.ok());
    EXPECT_EQ(a.query_id, b.query_id);
    EXPECT_EQ(a.epoch, b.epoch);
    // Result payloads are bit-identical regardless of worker count.
    EXPECT_EQ(a.aggregate.estimate, b.aggregate.estimate);
    EXPECT_EQ(a.aggregate.labeler_invocations, b.aggregate.labeler_invocations);
    EXPECT_EQ(a.supg.selected, b.supg.selected);
    EXPECT_EQ(a.supg.threshold, b.supg.threshold);
    EXPECT_EQ(a.select.selected, b.select.selected);
    EXPECT_EQ(a.select.threshold, b.select.threshold);
    EXPECT_EQ(a.limit.found, b.limit.found);
    EXPECT_EQ(a.limit.satisfied, b.limit.satisfied);
  }
}

TEST(ServerTest, DeterministicDrainAppliesDeferredCracksInQueryIdOrder) {
  data::Dataset ds = TestDataset(1200);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = FastServerOptions();
  opts.deterministic = true;
  TastiServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());

  core::CountScorer cars(data::ObjectClass::kCar);
  QuerySpec spec;
  spec.kind = QueryKind::kAggregate;
  spec.scorer = &cars;
  spec.error_target = 0.15;
  QueryResponse r1 = server.Execute(spec);
  QueryResponse r2 = server.Execute(spec);
  EXPECT_TRUE(r1.status.ok());
  EXPECT_TRUE(r2.status.ok());
  // No cracks published yet: both queries ran against the build epoch.
  EXPECT_EQ(r1.epoch, 1u);
  EXPECT_EQ(r2.epoch, 1u);
  EXPECT_EQ(server.current_epoch(), 1u);

  server.Drain();
  // Drain applied the deferred cracks and published the next epoch.
  EXPECT_EQ(server.current_epoch(), 2u);
  EXPECT_EQ(server.live_snapshots(), 1u);
}

// The paper's session path (Section 3.3) written out naively: build the
// index, then for each query propagate from scratch, run the algorithm over
// a per-query label cache and crack with that query's labels. No score
// cache, no server-wide label cache, no snapshots.
struct NaiveReplay {
  std::vector<QueryResponse> responses;
  std::string index;
  size_t query_calls = 0;
};

NaiveReplay ReplaySessionPath(const data::Dataset& ds,
                              const core::IndexOptions& index_options,
                              uint64_t seed, double confidence,
                              const std::vector<QuerySpec>& script) {
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  labeler::CachingFallibleLabeler build_cache(&oracle);
  core::TastiIndex index =
      core::TastiIndex::Build(ds, &build_cache, index_options);
  const size_t build_calls = oracle.invocations();
  NaiveReplay out;
  for (size_t n = 0; n < script.size(); ++n) {
    const QuerySpec& spec = script[n];
    const std::vector<double> proxy = core::ComputeProxyScores(
        index, *spec.scorer,
        spec.kind == QueryKind::kLimit ? core::PropagationMode::kLimit
                                       : core::PropagationMode::kNumeric);
    labeler::CachingFallibleLabeler cache(&oracle);
    out.responses.push_back(ExecuteQuery(spec, proxy, &cache,
                                         api::DeriveQuerySeed(seed, n + 1),
                                         confidence));
    std::vector<data::LabelerOutput> labels;
    for (size_t record : cache.labeled_indices()) {
      labels.push_back(*cache.CachedLabel(record));
    }
    index.CrackFromLabels(cache.labeled_indices(), labels);
  }
  out.query_calls = oracle.invocations() - build_calls;
  Result<std::string> bytes = core::IndexSerializer::SerializeToString(index);
  EXPECT_TRUE(bytes.ok());
  if (bytes.ok()) out.index = *bytes;
  return out;
}

void ExpectSamePayload(const QueryResponse& got, const QueryResponse& want) {
  ASSERT_TRUE(want.status.ok());
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(got.aggregate.estimate, want.aggregate.estimate);
  EXPECT_EQ(got.aggregate.half_width, want.aggregate.half_width);
  EXPECT_EQ(got.aggregate.labeler_invocations,
            want.aggregate.labeler_invocations);
  EXPECT_EQ(got.aggregate_where.estimate, want.aggregate_where.estimate);
  EXPECT_EQ(got.aggregate_where.half_width, want.aggregate_where.half_width);
  EXPECT_EQ(got.aggregate_where.labeler_invocations,
            want.aggregate_where.labeler_invocations);
  EXPECT_EQ(got.supg.selected, want.supg.selected);
  EXPECT_EQ(got.supg.threshold, want.supg.threshold);
  EXPECT_EQ(got.supg.labeler_invocations, want.supg.labeler_invocations);
  EXPECT_EQ(got.select.selected, want.select.selected);
  EXPECT_EQ(got.select.threshold, want.select.threshold);
  EXPECT_EQ(got.select.labeler_invocations, want.select.labeler_invocations);
  EXPECT_EQ(got.limit.found, want.limit.found);
  EXPECT_EQ(got.limit.satisfied, want.limit.satisfied);
  EXPECT_EQ(got.limit.labeler_invocations, want.limit.labeler_invocations);
}

// One script through a TastiSession, through the naive replay above and
// through a deterministic four-worker server: every payload and the final
// index must be bit-identical, and the session's caches may only save
// paid oracle calls.
TEST(SessionReplayTest, SessionMatchesNaiveReplay) {
  data::Dataset ds = TestDataset(1500);
  core::CountScorer cars(data::ObjectClass::kCar);
  core::PresenceScorer present(data::ObjectClass::kCar);
  core::AtLeastCountScorer busy(data::ObjectClass::kCar, 2);
  std::vector<QuerySpec> script(8);
  script[0].kind = QueryKind::kAggregate;
  script[0].scorer = &cars;
  script[0].error_target = 0.15;
  script[1].kind = QueryKind::kSupgRecall;
  script[1].scorer = &present;
  script[1].budget = 120;
  script[2].kind = QueryKind::kSupgPrecision;
  script[2].scorer = &present;
  script[2].target = 0.8;
  script[2].budget = 120;
  script[3].kind = QueryKind::kThresholdSelect;
  script[3].scorer = &present;
  script[3].validation_budget = 80;
  script[4].kind = QueryKind::kLimit;
  script[4].scorer = &busy;
  script[4].want = 4;
  script[5].kind = QueryKind::kAggregateWhere;
  script[5].scorer = &present;
  script[5].statistic = &cars;
  script[5].error_target = 0.2;
  // Two scorers again, now against a cracked index.
  script[6] = script[0];
  script[7] = script[1];

  const ServerOptions server_opts = FastServerOptions();
  labeler::SimulatedLabeler session_labeler(&ds);
  labeler::FallibleAdapter session_oracle(&session_labeler);
  api::SessionOptions session_opts;
  session_opts.index = server_opts.index;
  session_opts.seed = server_opts.seed;
  api::TastiSession session(&ds, &session_oracle, session_opts);
  std::vector<QueryResponse> expected;
  for (const QuerySpec& spec : script) {
    expected.push_back(session.Execute(spec));
  }
  Result<std::string> session_index =
      core::IndexSerializer::SerializeToString(session.index());
  ASSERT_TRUE(session_index.ok());
  ASSERT_GT(session.index().num_representatives(),
            server_opts.index.num_representatives);  // the script cracked

  const NaiveReplay replay =
      ReplaySessionPath(ds, session_opts.index, session_opts.seed,
                        session_opts.confidence, script);
  ASSERT_EQ(replay.responses.size(), script.size());
  for (size_t i = 0; i < script.size(); ++i) {
    SCOPED_TRACE(std::string("replay query ") + std::to_string(i) + " " +
                 QueryKindName(script[i].kind));
    ExpectSamePayload(expected[i], replay.responses[i]);
  }
  EXPECT_TRUE(replay.index == *session_index)
      << "final index bytes differ (" << replay.index.size() << " vs "
      << session_index->size() << ")";
  EXPECT_LE(session.total_labeler_invocations() - session.index_invocations(),
            replay.query_calls);

  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = server_opts;
  opts.num_workers = 4;
  opts.deterministic = true;
  TastiServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());
  for (size_t i = 0; i < script.size(); ++i) {
    SCOPED_TRACE(std::string("server query ") + std::to_string(i) + " " +
                 QueryKindName(script[i].kind));
    const QueryResponse got = server.Execute(script[i]);
    server.Drain();
    ExpectSamePayload(got, expected[i]);
  }
  Result<std::string> server_index = server.SerializeIndex();
  ASSERT_TRUE(server_index.ok());
  EXPECT_TRUE(*server_index == *session_index)
      << "final index bytes differ (" << server_index->size() << " vs "
      << session_index->size() << ")";
}

// Failed representatives the build could not label are re-annotated by
// later queries once the oracle heals, at most kMaxRepRepairsPerQuery per
// query: query n asks for the window that starts n-1 windows into its
// snapshot's failed list. The epoch that applies a repair lists the rep in
// dirty_reps, so the next query's proxy advances over it, and every repair
// call is attributed to the query that made it.
TEST(ServerRepairTest, RepairedRepsReenterPropagation) {
  data::Dataset ds = TestDataset(1500);
  core::CountScorer cars(data::ObjectClass::kCar);
  QuerySpec spec;
  spec.kind = QueryKind::kAggregate;
  spec.scorer = &cars;
  spec.error_target = 0.2;
  for (bool deterministic : {false, true}) {
    SCOPED_TRACE(deterministic ? "deterministic" : "inline cracks");
    labeler::SimulatedLabeler sim(&ds);
    labeler::FaultSchedule broken;
    broken.permanent_rate = 0.25;
    broken.seed = 17;
    labeler::FaultInjectingLabeler oracle(&sim, broken);
    ServerOptions opts = FastServerOptions();
    opts.num_workers = 2;
    opts.deterministic = deterministic;
    TastiServer server(&ds, &oracle, opts);
    ASSERT_TRUE(server.Start().ok());
    const std::vector<size_t> failed =
        server.index().failed_representative_positions();
    ASSERT_GT(failed.size(), kMaxRepRepairsPerQuery);
    oracle.set_schedule(labeler::FaultSchedule{});
    // The reps query `id` asks for while every rep of `failed` is failed.
    auto window = [&failed](uint64_t id) {
      std::vector<size_t> reps;
      for (size_t i = 0; i < kMaxRepRepairsPerQuery; ++i) {
        reps.push_back(
            failed[((id - 1) * kMaxRepRepairsPerQuery + i) % failed.size()]);
      }
      return reps;
    };

    std::vector<size_t> repaired;
    if (deterministic) {
      // One wave reads the build epoch. Its windows wrap around the failed
      // list, so Drain applies a rep for the first query that asked and
      // skips it for the later ones. The responses report no repairs or
      // cracks: Drain applies them after the responses are out.
      const size_t wave = failed.size() / kMaxRepRepairsPerQuery + 2;
      ASSERT_GT(wave * kMaxRepRepairsPerQuery,
                failed.size() + kMaxRepRepairsPerQuery);
      std::vector<uint64_t> ids;
      for (size_t q = 0; q < wave; ++q) {
        const Result<uint64_t> id = server.Submit(spec);
        ASSERT_TRUE(id.ok());
        ids.push_back(*id);
      }
      for (uint64_t id : ids) {
        const QueryResponse response = server.Wait(id);
        EXPECT_TRUE(response.status.ok());
        EXPECT_EQ(response.repaired_representatives, 0u);
        EXPECT_EQ(response.cracked_representatives, 0u);
        const std::vector<size_t> asked = window(id);
        repaired.insert(repaired.end(), asked.begin(), asked.end());
      }
      server.Drain();
      for (const obs::QueryRecord& record : server.query_log().queries()) {
        EXPECT_EQ(record.repaired_representatives, 0u);
      }
    } else {
      const QueryResponse response = server.Execute(spec);
      EXPECT_TRUE(response.status.ok());
      EXPECT_EQ(response.repaired_representatives, kMaxRepRepairsPerQuery);
      EXPECT_EQ(server.query_log().queries().front().repaired_representatives,
                kMaxRepRepairsPerQuery);
      repaired = window(1);
    }
    std::sort(repaired.begin(), repaired.end());
    repaired.erase(std::unique(repaired.begin(), repaired.end()),
                   repaired.end());
    const size_t remaining = failed.size() - repaired.size();
    EXPECT_EQ(server.index().num_failed_representatives(), remaining);
    const std::shared_ptr<const IndexSnapshot> epoch = server.epochs().Acquire();
    EXPECT_EQ(epoch->epoch, 2u);
    EXPECT_EQ(epoch->num_failed_representatives, remaining);
    for (size_t pos : repaired) {
      EXPECT_EQ(server.index().rep_label_valid()[pos], 1u);
      EXPECT_TRUE(std::binary_search(epoch->dirty_reps.begin(),
                                     epoch->dirty_reps.end(),
                                     static_cast<uint32_t>(pos)))
          << "repaired rep " << pos << " not in the epoch's delta";
    }

    // The next query's proxy advances over the repair epoch's delta, and
    // it repairs what is left, up to the cap.
    const QueryResponse next = server.Execute(spec);
    server.Drain();
    EXPECT_TRUE(next.status.ok());
    EXPECT_EQ(next.epoch, 2u);
    EXPECT_EQ(next.proxy_source, ProxySource::kDelta);
    const size_t next_repairs = std::min(kMaxRepRepairsPerQuery, remaining);
    EXPECT_EQ(server.index().num_failed_representatives(),
              remaining - next_repairs);
    if (!deterministic) {
      EXPECT_EQ(next.repaired_representatives, next_repairs);
    }
    EXPECT_TRUE(server.CheckAttributionInvariant().ok());
  }
}

TEST(ServerTest, SubmitBeforeStartAndAfterShutdownFails) {
  data::Dataset ds = TestDataset(600);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = FastServerOptions();
  opts.index.num_representatives = 80;
  opts.index.num_training_records = 80;
  TastiServer server(&ds, &adapter, opts);

  core::CountScorer cars(data::ObjectClass::kCar);
  QuerySpec spec;
  spec.kind = QueryKind::kAggregate;
  spec.scorer = &cars;
  Result<uint64_t> early = server.Submit(spec);
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(server.Start().ok());
  server.Shutdown();
  Result<uint64_t> late = server.Submit(spec);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
}

// Queries after AppendRecords see proxy scores for more records than the
// server's oracle covers. Each algorithm must refuse that with a status,
// never abort the process that serves every other client.
TEST(ServerTest, QueriesAfterAppendFailWithoutAborting) {
  data::Dataset ds = TestDataset(600);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = FastServerOptions();
  opts.index.num_representatives = 80;
  opts.index.num_training_records = 80;
  TastiServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());
  server.AppendRecords(ds.features.RowSlice(0, 50));

  core::CountScorer cars(data::ObjectClass::kCar);
  core::PresenceScorer present(data::ObjectClass::kCar);
  core::AtLeastCountScorer busy(data::ObjectClass::kCar, 2);
  const QueryKind kinds[] = {
      QueryKind::kAggregate,     QueryKind::kAggregateWhere,
      QueryKind::kSupgRecall,    QueryKind::kSupgPrecision,
      QueryKind::kThresholdSelect, QueryKind::kLimit};
  for (QueryKind kind : kinds) {
    QuerySpec spec;
    spec.kind = kind;
    spec.scorer = &present;
    if (kind == QueryKind::kAggregate) spec.scorer = &cars;
    if (kind == QueryKind::kLimit) spec.scorer = &busy;
    spec.statistic = &cars;
    Result<uint64_t> id = server.Submit(spec);
    ASSERT_TRUE(id.ok());
    QueryResponse response = server.Wait(*id);
    EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition)
        << QueryKindName(kind) << ": " << response.status.ToString();
    EXPECT_EQ(response.attributed_invocations, 0u) << QueryKindName(kind);
  }
  server.Drain();
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
}

// A served SUPG query hands its sample to the scheduler in batches, so
// under parallel dispatch some dispatch carries more than one of its
// records. (Start() batches too, so the query's own calls are measured as
// the change in the stats across it.)
TEST(ServerTest, SupgQueryBatchesReachTheScheduler) {
  data::Dataset ds = TestDataset(1500);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = FastServerOptions();
  opts.scheduler.parallel_dispatch = true;
  opts.scheduler.dispatch_threads = 4;
  TastiServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());
  const SchedulerStats before = server.scheduler_stats();

  core::PresenceScorer present(data::ObjectClass::kCar);
  QuerySpec spec;
  spec.kind = QueryKind::kSupgRecall;
  spec.scorer = &present;
  spec.target = 0.9;
  spec.budget = 200;
  Result<uint64_t> id = server.Submit(spec);
  ASSERT_TRUE(id.ok());
  QueryResponse response = server.Wait(*id);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  server.Drain();

  const SchedulerStats after = server.scheduler_stats();
  const size_t calls = after.physical_calls - before.physical_calls;
  const size_t batches = after.batches - before.batches;
  ASSERT_GT(calls, 1u);
  EXPECT_LT(batches, calls) << "every dispatch carried a single record";
  EXPECT_GT(after.max_batch_size, 1u);
  EXPECT_EQ(response.attributed_invocations, calls);
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
}

// The wait for a scheduled label is its own span, inside the served
// query's span on the query's worker thread — so it lands in the query's
// span totals, which RunQuery collects on that thread.
TEST(ServerTest, OracleWaitIsASpanInsideTheServedQuery) {
  const bool tracing = obs::TracingEnabled();
  obs::SetTracingEnabled(true);
  obs::TraceRecorder::Global().Clear();
  {
    data::Dataset ds = TestDataset(600);
    labeler::SimulatedLabeler oracle(&ds);
    labeler::FallibleAdapter adapter(&oracle);
    ServerOptions opts = FastServerOptions();
    opts.index.num_representatives = 80;
    opts.index.num_training_records = 80;
    TastiServer server(&ds, &adapter, opts);
    ASSERT_TRUE(server.Start().ok());
    core::PresenceScorer present(data::ObjectClass::kCar);
    QuerySpec spec;
    spec.kind = QueryKind::kSupgRecall;
    spec.scorer = &present;
    spec.budget = 60;
    Result<uint64_t> id = server.Submit(spec);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(server.Wait(*id).status.ok());
    server.Drain();
  }
  obs::SetTracingEnabled(tracing);

  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::Global().Snapshot();
  size_t nested_waits = 0;
  for (const obs::TraceEvent& query : events) {
    if (std::string(query.name) != "serve.query") continue;
    for (const obs::TraceEvent& wait : events) {
      if (std::string(wait.name) == "serve.oracle_wait" &&
          wait.tid == query.tid && wait.ts_us >= query.ts_us &&
          wait.ts_us + wait.dur_us <= query.ts_us + query.dur_us) {
        ++nested_waits;
      }
    }
  }
  EXPECT_GT(nested_waits, 0u);
}

// A WAL-on crack splits its `serve.crack` span into the lock wait, the
// epoch publish and (at a checkpoint cadence of one) the checkpoint it
// holds the lock for, each a span of its own on the cracking thread.
TEST(ServerTest, WalCrackRecordsWaitPublishAndCheckpointSpans) {
  const std::string dir = ::testing::TempDir() + "/serve_crack_spans";
  std::filesystem::remove_all(dir);
  const bool tracing = obs::TracingEnabled();
  obs::SetTracingEnabled(true);
  size_t cracked = 0;
  {
    data::Dataset ds = TestDataset(600);
    labeler::SimulatedLabeler oracle(&ds);
    labeler::FallibleAdapter adapter(&oracle);
    ServerOptions opts = FastServerOptions();
    opts.index.num_representatives = 80;
    opts.index.num_training_records = 80;
    opts.durability.dir = dir;
    opts.durability.checkpoint_every_epochs = 1;
    TastiServer server(&ds, &adapter, opts);
    ASSERT_TRUE(server.Start().ok());
    // Only the crack's spans: Start's own publish and checkpoint go.
    obs::TraceRecorder::Global().Clear();
    core::PresenceScorer present(data::ObjectClass::kCar);
    QuerySpec spec;
    spec.kind = QueryKind::kSupgRecall;
    spec.scorer = &present;
    spec.budget = 60;
    Result<uint64_t> id = server.Submit(spec);
    ASSERT_TRUE(id.ok());
    const QueryResponse response = server.Wait(*id);
    ASSERT_TRUE(response.status.ok());
    cracked = response.cracked_representatives;
    server.Drain();
    EXPECT_GT(server.durability_stats().checkpoints_written, 1u);
  }
  obs::SetTracingEnabled(tracing);
  std::filesystem::remove_all(dir);
  ASSERT_GT(cracked, 0u);

  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::Global().Snapshot();
  for (const char* name :
       {"serve.crack_wait", "serve.publish", "durable.checkpoint"}) {
    size_t inside_crack = 0;
    for (const obs::TraceEvent& crack : events) {
      if (std::string(crack.name) != "serve.crack") continue;
      for (const obs::TraceEvent& part : events) {
        if (std::string(part.name) == name && part.tid == crack.tid &&
            part.ts_us >= crack.ts_us &&
            part.ts_us + part.dur_us <= crack.ts_us + crack.dur_us) {
          ++inside_crack;
        }
      }
    }
    EXPECT_EQ(inside_crack, 1u) << name;
  }
}

// Under concurrent load every crack and append goes through one
// group-committing queue: each representative added is reported by the
// one response whose crack added it, commits coalesce (never more epochs
// than mutations, one fsync per epoch), and the WAL replays to the live
// index byte for byte. Queries that read an epoch with appended records
// refuse with FailedPrecondition (the oracle covers the base records only)
// and queue nothing.
TEST(ServerGroupCommitTest, ConcurrentCracksAndAppendsShareCommits) {
  const std::string dir = ::testing::TempDir() + "/serve_group_commit";
  const std::string copy = dir + "_copy";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(copy);
  data::Dataset ds = TestDataset(1200);
  labeler::SimulatedLabeler truth(&ds);
  labeler::FallibleAdapter adapter(&truth);
  ServerOptions opts = FastServerOptions();
  opts.num_workers = 8;
  opts.durability.dir = dir;
  // Recovery then replays every commit from the opening checkpoint.
  opts.durability.checkpoint_every_epochs = 1000;
  TastiServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());
  const size_t reps_before = server.index().num_representatives();

  core::CountScorer cars(data::ObjectClass::kCar);
  core::PresenceScorer present(data::ObjectClass::kCar);
  std::vector<QuerySpec> specs;
  for (int i = 0; i < 24; ++i) {
    QuerySpec spec;
    spec.kind = i % 2 == 0 ? QueryKind::kAggregate : QueryKind::kSupgRecall;
    spec.scorer = i % 2 == 0 ? static_cast<const core::Scorer*>(&cars)
                             : &present;
    spec.error_target = 0.2;
    spec.budget = 60;
    specs.push_back(spec);
  }
  std::vector<QueryResponse> responses(specs.size());
  std::atomic<size_t> done{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (size_t q = c; q < specs.size(); q += 4) {
        responses[q] = server.Execute(specs[q]);
        done.fetch_add(1);
      }
    });
  }
  // Three appends land while queries are still cracking.
  const size_t kAppends = 3;
  for (size_t a = 0; a < kAppends; ++a) {
    while (done.load() < 6 * (a + 1)) std::this_thread::yield();
    EXPECT_EQ(server.AppendRecords(ds.features.RowSlice(a * 20, a * 20 + 20)),
              ds.size() + a * 20);
  }
  for (std::thread& client : clients) client.join();
  server.Drain();

  size_t cracked = 0;
  size_t mutations = kAppends;
  for (const QueryResponse& response : responses) {
    if (!response.status.ok()) {
      EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
      EXPECT_EQ(response.logical_oracle_calls, 0u);
    }
    cracked += response.cracked_representatives;
    if (response.logical_oracle_calls > 0) ++mutations;
  }
  EXPECT_GT(cracked, 0u);
  EXPECT_EQ(cracked, server.index().num_representatives() - reps_before);
  const ServerStats stats = server.stats();
  EXPECT_LE(stats.epochs_published - 1, mutations);
  EXPECT_EQ(server.durability_stats().syncs, stats.epochs_published - 1);
  EXPECT_EQ(server.index().num_records(), ds.size() + kAppends * 20);
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());

  // Every commit ended in an fsync, so the directory as it stands is what
  // a crash right now would leave behind.
  const Result<std::string> live = server.SerializeIndex();
  ASSERT_TRUE(live.ok());
  std::filesystem::copy(dir, copy, std::filesystem::copy_options::recursive);
  server.Shutdown();
  TastiServer revived(&ds, &adapter, opts);
  ASSERT_TRUE(revived.RecoverFrom(copy).ok());
  EXPECT_EQ(revived.current_epoch(), server.current_epoch());
  const Result<std::string> recovered = revived.SerializeIndex();
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(*recovered == *live);
  revived.Shutdown();
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(copy);
}

// --- ScoreCache ---

core::TastiIndex BuildBareIndex(const data::Dataset& ds) {
  labeler::SimulatedLabeler simulated(&ds);
  labeler::FallibleAdapter oracle(&simulated);
  return core::TastiIndex::Build(ds, &oracle, FastServerOptions().index);
}

void ExpectScoresBitIdentical(const std::vector<double>& a,
                              const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "score diverges at record " << i;
  }
}

TEST(ScoreCacheTest, HitSharingAndDeltaAdvance) {
  data::Dataset ds = TestDataset(1200);
  core::TastiIndex index = BuildBareIndex(ds);
  core::CountScorer cars(data::ObjectClass::kCar);

  IndexSnapshot snap1 = IndexSnapshot::FromIndexAndTakeDelta(&index, 1, 0);
  EXPECT_TRUE(snap1.delta_full);  // root epoch has no parent

  ScoreCache cache;
  ScoreCache::Outcome outcome;
  std::shared_ptr<const core::PropagationState> s1;
  {
    obs::SpanTotals spans;
    s1 = cache.GetOrCompute(snap1, cars, core::PropagationMode::kNumeric,
                            &outcome);
    EXPECT_GT(obs::PhaseTimesFromSpans(spans).propagation_seconds, 0.0);
  }
  EXPECT_EQ(outcome.source, ProxySource::kFull);
  ExpectScoresBitIdentical(
      s1->scores, core::ComputeProxyScores(snap1.View(), cars,
                                           core::PropagationMode::kNumeric));

  // Same key again: the exact shared state comes back, zero proxy time.
  {
    obs::SpanTotals spans;
    auto s2 = cache.GetOrCompute(snap1, cars, core::PropagationMode::kNumeric,
                                 &outcome);
    EXPECT_EQ(s2.get(), s1.get());
    const obs::QueryPhaseTimes phases = obs::PhaseTimesFromSpans(spans);
    EXPECT_EQ(phases.propagation_seconds, 0.0);
    EXPECT_EQ(phases.rep_score_seconds, 0.0);
  }
  EXPECT_EQ(outcome.source, ProxySource::kHit);

  // Crack a few records and publish epoch 2 with a row-wise delta.
  size_t added = 0;
  for (size_t r = 0; r < ds.size() && added < 4; ++r) {
    if (!index.IsRepresentative(r)) {
      index.AddRepresentative(r, ds.ground_truth[r]);
      ++added;
    }
  }
  IndexSnapshot snap2 = IndexSnapshot::FromIndexAndTakeDelta(&index, 2, 1);
  ASSERT_FALSE(snap2.delta_full);
  ASSERT_FALSE(snap2.dirty_rows.empty());

  auto s3 = cache.GetOrCompute(snap2, cars, core::PropagationMode::kNumeric,
                               &outcome);
  EXPECT_EQ(outcome.source, ProxySource::kDelta);
  EXPECT_GT(outcome.delta_rows, 0u);
  EXPECT_LT(outcome.delta_rows, snap2.num_records);
  // The parent entry is untouched (copy-on-write)...
  ExpectScoresBitIdentical(
      s1->scores, core::ComputeProxyScores(snap1.View(), cars,
                                           core::PropagationMode::kNumeric));
  // ...and the advanced child is bit-identical to a full recompute.
  ExpectScoresBitIdentical(
      s3->scores, core::ComputeProxyScores(snap2.View(), cars,
                                           core::PropagationMode::kNumeric));

  ScoreCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.full_computes, 1u);
  EXPECT_EQ(stats.delta_hits, 1u);
  EXPECT_EQ(stats.delta_rows, outcome.delta_rows);
  EXPECT_EQ(stats.resident_entries, 2u);
  EXPECT_GT(stats.resident_bytes, 0u);
}

TEST(ScoreCacheTest, EvictionBoundsResidencyAndInvalidateDropsEntries) {
  data::Dataset ds = TestDataset(800);
  core::TastiIndex index = BuildBareIndex(ds);
  core::CountScorer cars(data::ObjectClass::kCar);
  core::PresenceScorer present(data::ObjectClass::kCar);

  ScoreCacheOptions copts;
  copts.max_entries = 1;
  ScoreCache cache(copts);
  IndexSnapshot snap = IndexSnapshot::FromIndexAndTakeDelta(&index, 1, 0);

  ScoreCache::Outcome outcome;
  cache.GetOrCompute(snap, cars, core::PropagationMode::kNumeric, &outcome);
  // A second scorer on the same epoch overflows max_entries = 1: the LRU
  // (cars) entry is evicted, the entry being served survives.
  cache.GetOrCompute(snap, present, core::PropagationMode::kNumeric, &outcome);
  ScoreCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_entries, 1u);
  cache.GetOrCompute(snap, present, core::PropagationMode::kNumeric, &outcome);
  EXPECT_EQ(outcome.source, ProxySource::kHit);
  cache.GetOrCompute(snap, cars, core::PropagationMode::kNumeric, &outcome);
  EXPECT_EQ(outcome.source, ProxySource::kFull);  // evicted -> recompute

  cache.Invalidate();
  stats = cache.stats();
  EXPECT_EQ(stats.resident_entries, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_GT(stats.invalidations, 0u);
  cache.GetOrCompute(snap, cars, core::PropagationMode::kNumeric, &outcome);
  EXPECT_EQ(outcome.source, ProxySource::kFull);
}

TEST(ScoreCacheTest, ColdCacheOnDeltaSnapshotFallsBackToFull) {
  data::Dataset ds = TestDataset(800);
  core::TastiIndex index = BuildBareIndex(ds);
  core::CountScorer cars(data::ObjectClass::kCar);
  index.TakeDelta();
  size_t added = 0;
  for (size_t r = 0; r < ds.size() && added < 2; ++r) {
    if (!index.IsRepresentative(r)) {
      index.AddRepresentative(r, ds.ground_truth[r]);
      ++added;
    }
  }
  IndexSnapshot snap2 = IndexSnapshot::FromIndexAndTakeDelta(&index, 2, 1);
  ASSERT_FALSE(snap2.delta_full);

  ScoreCache cache;  // no parent entry anywhere
  ScoreCache::Outcome outcome;
  auto state = cache.GetOrCompute(snap2, cars, core::PropagationMode::kNumeric,
                                  &outcome);
  EXPECT_EQ(outcome.source, ProxySource::kFull);
  ExpectScoresBitIdentical(
      state->scores, core::ComputeProxyScores(snap2.View(), cars,
                                              core::PropagationMode::kNumeric));
}

// Run under TSan (check.sh tsan stage): concurrent readers resolving
// through the cache while a publisher cracks the index and publishes new
// delta-carrying epochs. Any unsynchronized access to entries, stats, or a
// parent state being copied while read would trip the race detector.
TEST(ScoreCacheTest, ConcurrentReadersAcrossEpochPublishes) {
  data::Dataset ds = TestDataset(800);
  core::TastiIndex index = BuildBareIndex(ds);
  core::CountScorer cars(data::ObjectClass::kCar);

  EpochManager epochs;
  epochs.Publish(IndexSnapshot::FromIndexAndTakeDelta(&index, 1, 0));
  ScoreCache cache;

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        std::shared_ptr<const IndexSnapshot> snap = epochs.Acquire();
        auto state = cache.GetOrCompute(
            *snap, cars, core::PropagationMode::kNumeric, nullptr);
        EXPECT_EQ(state->scores.size(), snap->num_records);
        EXPECT_EQ(state->rep_scores.size(), snap->rep_record_ids.size());
      }
    });
  }

  size_t next_record = 0;
  for (uint64_t epoch = 2; epoch <= 6; ++epoch) {
    while (index.IsRepresentative(next_record)) ++next_record;
    index.AddRepresentative(next_record, ds.ground_truth[next_record]);
    epochs.Publish(
        IndexSnapshot::FromIndexAndTakeDelta(&index, epoch, epoch - 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  // Whatever mix of full/delta/hit produced the final epoch's entry, it
  // must be bit-identical to a from-scratch computation.
  std::shared_ptr<const IndexSnapshot> snap = epochs.Acquire();
  auto state = cache.GetOrCompute(*snap, cars, core::PropagationMode::kNumeric,
                                  nullptr);
  ExpectScoresBitIdentical(
      state->scores, core::ComputeProxyScores(snap->View(), cars,
                                              core::PropagationMode::kNumeric));
  EXPECT_EQ(cache.stats().full_computes + cache.stats().delta_hits,
            cache.stats().resident_entries + cache.stats().evictions);
}

TEST(ServerTest, ScoreCacheAccountingAcrossDeterministicWaves) {
  data::Dataset ds = TestDataset(1200);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = FastServerOptions();
  opts.deterministic = true;
  TastiServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());

  core::CountScorer cars(data::ObjectClass::kCar);
  QuerySpec spec;
  spec.kind = QueryKind::kAggregate;
  spec.scorer = &cars;
  spec.error_target = 0.15;

  auto wave = [&] {
    std::vector<uint64_t> ids;
    for (int i = 0; i < 3; ++i) {
      Result<uint64_t> id = server.Submit(spec);
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    for (uint64_t id : ids) {
      QueryResponse response = server.Wait(id);
      EXPECT_TRUE(response.status.ok());
    }
    server.Drain();
  };

  // Wave 1 (epoch 1): one query computes, two reuse the entry.
  wave();
  ScoreCacheStats stats = server.score_cache_stats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.full_computes, 1u);
  EXPECT_EQ(stats.hits + stats.shared_hits, 2u);

  // Drain published epoch 2 from the wave's cracks; wave 2 advances the
  // warm scorer exactly once and the rest reuse it. Every crack now keeps
  // a row-wise delta (large cracks used to force a full epoch and a second
  // full compute here), so that one advance is a delta hit.
  ASSERT_GT(server.current_epoch(), 1u);
  wave();
  stats = server.score_cache_stats();
  EXPECT_EQ(stats.lookups, 6u);
  EXPECT_EQ(stats.full_computes, 1u);
  EXPECT_EQ(stats.delta_hits, 1u);
  EXPECT_EQ(stats.hits + stats.shared_hits, 4u);

  // The ledger records how each query's proxies were obtained.
  size_t sourced = 0;
  for (const obs::QueryRecord& record : server.query_log().queries()) {
    EXPECT_FALSE(record.proxy_source.empty());
    if (!record.proxy_source.empty()) ++sourced;
  }
  EXPECT_EQ(sourced, 6u);
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
}

// --- Live stats / ServerMonitor ---

TEST(ServerTest, StatsAreSafeToReadDuringALiveWorkload) {
  // ServerStats counters are updated by worker threads; stats() must be
  // readable concurrently without torn or racing reads. TSan (check.sh's
  // tsan stage runs this binary) is the real assertion here.
  data::Dataset ds = TestDataset(1200);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = FastServerOptions();
  TastiServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t last_completed = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const ServerStats stats = server.stats();
      // Monotone counters never go backwards, even mid-workload.
      EXPECT_GE(stats.queries_completed, last_completed);
      last_completed = stats.queries_completed;
      EXPECT_GE(stats.queries_submitted, stats.queries_completed);
      (void)server.scheduler_stats();
      (void)server.score_cache_stats();
    }
  });

  core::CountScorer cars(data::ObjectClass::kCar);
  core::PresenceScorer present(data::ObjectClass::kCar);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    QuerySpec spec;
    if (i % 2 == 0) {
      spec.kind = QueryKind::kAggregate;
      spec.scorer = &cars;
      spec.error_target = 0.15;
    } else {
      spec.kind = QueryKind::kSupgRecall;
      spec.scorer = &present;
      spec.target = 0.9;
      spec.budget = 120;
    }
    Result<uint64_t> id = server.Submit(spec);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (uint64_t id : ids) {
    EXPECT_TRUE(server.Wait(id).status.ok());
  }
  server.Drain();
  stop.store(true);
  reader.join();
  EXPECT_EQ(server.stats().queries_completed, 8u);
}

TEST(MonitorTest, TracksQuantilesBurnsAlertsAndDumps) {
  data::Dataset ds = TestDataset(1200);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = FastServerOptions();

  obs::ManualClock clock(1000.0);
  MonitorOptions mopts;
  // Impossible latency SLO: every query breaches, so burn hits 1/budget
  // and the alert + dump path must fire deterministically.
  mopts.slo.latency_threshold_ms = 0.0001;
  mopts.slo.min_events = 3;
  mopts.flight_dump_path = ::testing::TempDir() + "/monitor_test_flight";
  mopts.dump_cooldown_seconds = 0.0;
  ServerMonitor monitor(mopts, &clock);

  TastiServer server(&ds, &adapter, opts);
  server.AttachMonitor(&monitor);
  ASSERT_TRUE(server.Start().ok());

  core::CountScorer cars(data::ObjectClass::kCar);
  QuerySpec spec;
  spec.kind = QueryKind::kAggregate;
  spec.scorer = &cars;
  spec.error_target = 0.15;
  for (int i = 0; i < 6; ++i) {
    clock.Advance(1.0);
    EXPECT_TRUE(server.Execute(spec).status.ok());
  }
  server.Drain();

  // Quantiles: six aggregate queries are in the window.
  obs::LiveStats live = monitor.Collect();
  bool saw_latency_quantile = false;
  bool saw_burn = false;
  bool saw_cache = false;
  for (const obs::LiveSample& sample : live.samples) {
    if (sample.name == "tasti_query_latency_ms") {
      for (const auto& [key, value] : sample.labels) {
        if (key == "kind" && value == "aggregate") saw_latency_quantile = true;
      }
    }
    if (sample.name == "tasti_slo_burn_rate") saw_burn = true;
    if (sample.name == "tasti_score_cache_hit_ratio") saw_cache = true;
  }
  EXPECT_TRUE(saw_latency_quantile);
  EXPECT_TRUE(saw_burn);
  EXPECT_TRUE(saw_cache);

  // Every query breached, so both burn windows saturate at 1/error_budget
  // (latency_target 0.99 -> budget 0.01 -> burn 100x).
  const obs::BurnRates burn = monitor.Burn(obs::SloObjective::kLatency);
  EXPECT_GT(burn.fast, mopts.slo.burn_rate_threshold);
  EXPECT_GT(burn.slow, mopts.slo.burn_rate_threshold);
  EXPECT_GE(monitor.alerts_raised(), 1u);
  const std::vector<obs::Alert> alerts = monitor.alerts();
  ASSERT_FALSE(alerts.empty());
  EXPECT_EQ(alerts[0].objective, obs::SloObjective::kLatency);

  // The breach wrote a bounded flight dump.
  const std::vector<std::string> dumps = monitor.dump_files();
  ASSERT_FALSE(dumps.empty());
  std::ifstream in(dumps[0]);
  ASSERT_TRUE(in.good()) << dumps[0];
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("flight.dump"), std::string::npos);

  // The status line is renderable and mentions the alert count.
  EXPECT_NE(monitor.StatusLine().find("alerts="), std::string::npos);
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
}

TEST(MonitorTest, FaultHookRaisesAlertOncePerCooldown) {
  obs::ManualClock clock(0.0);
  MonitorOptions mopts;
  mopts.event_alert_cooldown_seconds = 10.0;
  ServerMonitor monitor(mopts, &clock);

  monitor.OnFault("breaker_open", "oracle circuit breaker opened");
  monitor.OnFault("breaker_open", "oracle circuit breaker opened");
  EXPECT_EQ(monitor.alerts_raised(), 1u);  // second is inside the cooldown
  clock.Advance(11.0);
  monitor.OnFault("breaker_open", "oracle circuit breaker opened");
  EXPECT_EQ(monitor.alerts_raised(), 2u);
  // Distinct fault kinds have independent cooldowns.
  monitor.OnFault("oracle_failure", "query exhausted retries");
  EXPECT_EQ(monitor.alerts_raised(), 3u);
}

TEST(MonitorTest, EpochPublishUpdatesDriftGaugesAndAlerts) {
  data::Dataset ds = TestDataset(1500);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = FastServerOptions();

  obs::ManualClock clock(0.0);
  MonitorOptions mopts;
  ServerMonitor monitor(mopts, &clock);

  TastiServer server(&ds, &adapter, opts);
  server.AttachMonitor(&monitor);
  ASSERT_TRUE(server.Start().ok());

  // Start() published the baseline epoch into the monitor.
  IndexHealth health = monitor.index_health();
  EXPECT_EQ(health.num_records, ds.size());
  EXPECT_EQ(health.baseline_records, ds.size());
  EXPECT_DOUBLE_EQ(health.drift_ratio, 1.0);
  EXPECT_FALSE(health.drifted);

  // A budget-bounded query runs against the baseline first (the oracle
  // only covers the original records; appended footage is unlabeled until
  // cracked). Bounded so its cracks leave most records non-representative
  // — an aggregate here would crack nearly everything and flatten the
  // baseline distances the drift ratio is measured against.
  core::PresenceScorer present(data::ObjectClass::kCar);
  QuerySpec spec;
  spec.kind = QueryKind::kSupgRecall;
  spec.scorer = &present;
  spec.target = 0.9;
  spec.budget = 120;
  EXPECT_TRUE(server.Execute(spec).status.ok());
  server.Drain();

  // The camera pans to a different scene: taipei features appended live.
  data::DatasetOptions shifted_opts;
  shifted_opts.num_records = 400;
  shifted_opts.seed = 99;
  data::Dataset shifted = data::MakeTaipei(shifted_opts);
  clock.Advance(5.0);
  const size_t first_new = server.AppendRecords(shifted.features);
  EXPECT_EQ(first_new, ds.size());

  health = monitor.index_health();
  EXPECT_EQ(health.num_records, ds.size() + 400);
  EXPECT_GT(health.drift_ratio, mopts.drift_ratio_threshold);
  EXPECT_TRUE(health.drifted);

  // The drift alert fired and the gauges flow into Collect().
  bool drift_alert = false;
  for (const obs::Alert& alert : monitor.alerts()) {
    if (alert.objective == obs::SloObjective::kIndexDrift) drift_alert = true;
  }
  EXPECT_TRUE(drift_alert);
  bool saw_drifted_gauge = false;
  for (const obs::LiveSample& sample : monitor.Collect().samples) {
    if (sample.name == "tasti_index_drifted" && sample.value == 1.0) {
      saw_drifted_gauge = true;
    }
  }
  EXPECT_TRUE(saw_drifted_gauge);
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
}

// --- Batched labeling vs one record at a time ---

/// Labels a batch the way the query algorithms did before they labeled in
/// rounds: one TryLabel per record, in order, stopping before a call once
/// `deadline` is exhausted. Everything else is the inner labeler's.
class OneAtATimeOracle : public labeler::FallibleLabeler {
 public:
  OneAtATimeOracle(labeler::FallibleLabeler* inner, Deadline deadline)
      : inner_(inner), deadline_(std::move(deadline)) {}

  Result<data::LabelerOutput> TryLabel(size_t index) override {
    return inner_->TryLabel(index);
  }
  std::vector<Result<data::LabelerOutput>> TryLabelBatch(
      const std::vector<size_t>& indices) override {
    std::vector<Result<data::LabelerOutput>> results;
    for (size_t index : indices) {
      if (deadline_.exhausted()) break;
      results.push_back(inner_->TryLabel(index));
    }
    return results;
  }
  size_t num_records() const override { return inner_->num_records(); }
  size_t invocations() const override { return inner_->invocations(); }
  void ResetInvocations() override { inner_->ResetInvocations(); }

 private:
  labeler::FallibleLabeler* inner_;
  Deadline deadline_;
};

/// One served query's oracle chain, as TastiServer::RunQuery builds it
/// (DeadlineOracle over the per-query label cache over the scheduler), on
/// a fresh oracle. With transient faults the oracle is a (single-threaded)
/// FaultInjectingLabeler behind serial dispatch; without, the thread-safe
/// simulated labeler behind parallel dispatch.
struct QueryOracleStack {
  QueryOracleStack(const data::Dataset& ds, double transient_rate,
                   uint64_t seed, Deadline deadline, bool one_at_a_time)
      : truth(&ds) {
    labeler::FallibleLabeler* oracle = nullptr;
    SchedulerOptions options;
    if (transient_rate > 0.0) {
      labeler::FaultSchedule schedule;
      schedule.transient_rate = transient_rate;
      schedule.seed = seed;
      faulty.emplace(&truth, schedule);
      oracle = &*faulty;
    } else {
      adapter.emplace(&truth);
      oracle = &*adapter;
      options.parallel_dispatch = true;
      options.dispatch_threads = 4;
    }
    scheduler = std::make_unique<OracleScheduler>(oracle, options);
    scheduled.emplace(scheduler.get(), &ctx, ds.size());
    cache.emplace(&*scheduled);
    gated.emplace(&*cache, deadline, /*virtual_ms_per_call=*/1.0);
    top = &*gated;
    if (one_at_a_time) {
      serial.emplace(&*gated, deadline);
      top = &*serial;
    }
  }
  QueryOracleStack(const QueryOracleStack&) = delete;
  QueryOracleStack& operator=(const QueryOracleStack&) = delete;

  /// Oracle attempts, failed ones included.
  size_t attempts() const {
    return faulty ? faulty->invocations() : truth.invocations();
  }

  labeler::SimulatedLabeler truth;
  std::optional<labeler::FaultInjectingLabeler> faulty;
  std::optional<labeler::FallibleAdapter> adapter;
  std::unique_ptr<OracleScheduler> scheduler;
  QueryOracleContext ctx;
  std::optional<ScheduledOracle> scheduled;
  std::optional<labeler::CachingFallibleLabeler> cache;
  std::optional<DeadlineOracle> gated;
  std::optional<OneAtATimeOracle> serial;
  labeler::FallibleLabeler* top = nullptr;
};

/// Exact scores plus seeded noise: a proxy that ranks roughly right.
std::vector<double> NoisyProxy(const data::Dataset& ds,
                               const core::Scorer& scorer, double noise,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<double> proxy(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    proxy[i] = std::clamp(
        scorer.Score(ds.ground_truth[i]) + noise * rng.Normal(), 0.0, 4.0);
  }
  return proxy;
}

/// Everything a query run leaves behind that batching must not change:
/// the answer (doubles in hex, so equality is bit for bit), the oracle
/// attempts, the failed calls and the crack input.
struct QueryTrace {
  std::string answer;
  /// The labeler_invocations the algorithm reports.
  size_t algorithm_calls = 0;
  size_t attempts = 0;
  size_t failed_calls = 0;
  std::vector<size_t> labeled;
  bool deadline_hit = false;
};

template <typename T>
std::string Describe(const Result<T>& result,
                     void (*fields)(const T&, std::ostringstream*)) {
  std::ostringstream os;
  os << std::hexfloat << static_cast<int>(result.status().code());
  if (result.ok()) fields(*result, &os);
  return os.str();
}

void AppendIndices(const std::vector<size_t>& indices, std::ostringstream* os) {
  *os << " [";
  for (size_t index : indices) *os << index << ',';
  *os << ']';
}

enum class Algorithm {
  kAggregate,
  kAggregateWhere,
  kSupgRecall,
  kSupgPrecision,
  kThresholdSelect,
  kLimit,
};

/// Runs `algorithm` once on a fresh stack. `budget` is the SUPG budget,
/// the validation budget, the aggregates' max_samples and the limit's
/// `want`; `virtual_budget_ms` > 0 puts the query under a virtual
/// deadline at 1 ms per call.
QueryTrace RunAlgorithm(Algorithm algorithm, const data::Dataset& ds,
                        size_t budget, double transient_rate, uint64_t seed,
                        double virtual_budget_ms, bool one_at_a_time) {
  const Deadline deadline = virtual_budget_ms > 0.0
                                ? Deadline::VirtualBudget(virtual_budget_ms)
                                : Deadline::Unbounded();
  QueryOracleStack stack(ds, transient_rate, seed, deadline, one_at_a_time);
  core::CountScorer cars(data::ObjectClass::kCar);
  core::PresenceScorer present(data::ObjectClass::kCar);
  QueryTrace trace;
  switch (algorithm) {
    case Algorithm::kAggregate: {
      queries::AggregationOptions opts;
      opts.error_target = 0.05;
      opts.min_samples = 30;
      opts.check_interval = 20;
      opts.max_samples = budget;
      opts.seed = seed;
      opts.deadline = deadline;
      auto r = queries::TryEstimateMean(NoisyProxy(ds, cars, 0.5, seed),
                                        stack.top, cars, opts);
      trace.deadline_hit = r.ok() && r->deadline_hit;
      trace.algorithm_calls = r.ok() ? r->labeler_invocations : 0;
      trace.answer = Describe<queries::AggregationResult>(
          r, [](const queries::AggregationResult& a, std::ostringstream* os) {
            *os << ' ' << a.estimate << ' ' << a.half_width << ' '
                << a.labeler_invocations << ' ' << a.proxy_correlation << ' '
                << a.control_coefficient << ' ' << a.converged << ' '
                << a.failed_oracle_calls << ' ' << a.substituted_samples
                << ' ' << a.deadline_hit;
          });
      break;
    }
    case Algorithm::kAggregateWhere: {
      queries::PredicateAggregationOptions opts;
      opts.error_target = 0.3;
      opts.min_samples = 30;
      opts.check_interval = 20;
      opts.max_samples = budget;
      opts.seed = seed;
      opts.deadline = deadline;
      auto r = queries::TryEstimateMeanWithPredicate(
          NoisyProxy(ds, present, 0.3, seed), stack.top, present, cars, opts);
      trace.deadline_hit = r.ok() && r->deadline_hit;
      trace.algorithm_calls = r.ok() ? r->labeler_invocations : 0;
      trace.answer = Describe<queries::PredicateAggregationResult>(
          r, [](const queries::PredicateAggregationResult& a,
                std::ostringstream* os) {
            *os << ' ' << a.estimate << ' ' << a.half_width << ' '
                << a.labeler_invocations << ' ' << a.sample_matches << ' '
                << a.converged << ' ' << a.failed_oracle_calls << ' '
                << a.deadline_hit;
          });
      break;
    }
    case Algorithm::kSupgRecall:
    case Algorithm::kSupgPrecision: {
      const std::vector<double> proxy = NoisyProxy(ds, present, 0.3, seed);
      Result<queries::SupgResult> r = Status::Internal("not run");
      if (algorithm == Algorithm::kSupgRecall) {
        queries::SupgOptions opts;
        opts.budget = budget;
        opts.seed = seed;
        opts.deadline = deadline;
        r = queries::TrySupgRecallSelect(proxy, stack.top, present, opts);
      } else {
        queries::SupgPrecisionOptions opts;
        opts.budget = budget;
        opts.seed = seed;
        opts.deadline = deadline;
        r = queries::TrySupgPrecisionSelect(proxy, stack.top, present, opts);
      }
      trace.deadline_hit = r.ok() && r->deadline_hit;
      trace.algorithm_calls = r.ok() ? r->labeler_invocations : 0;
      trace.answer = Describe<queries::SupgResult>(
          r, [](const queries::SupgResult& a, std::ostringstream* os) {
            *os << ' ' << a.threshold << ' ' << a.labeler_invocations << ' '
                << a.sample_positives << ' ' << a.failed_oracle_calls << ' '
                << a.requested_samples << ' ' << a.achieved_samples << ' '
                << a.deadline_hit;
            AppendIndices(a.selected, os);
          });
      break;
    }
    case Algorithm::kThresholdSelect: {
      queries::ThresholdSelectOptions opts;
      opts.validation_budget = budget;
      opts.seed = seed;
      opts.deadline = deadline;
      auto r = queries::TryThresholdSelect(NoisyProxy(ds, present, 0.3, seed),
                                           stack.top, present, opts);
      trace.deadline_hit = r.ok() && r->deadline_hit;
      trace.algorithm_calls = r.ok() ? r->labeler_invocations : 0;
      trace.answer = Describe<queries::ThresholdSelectResult>(
          r, [](const queries::ThresholdSelectResult& a,
                std::ostringstream* os) {
            *os << ' ' << a.threshold << ' ' << a.labeler_invocations << ' '
                << a.validation_f1 << ' ' << a.failed_oracle_calls << ' '
                << a.deadline_hit;
            AppendIndices(a.selected, os);
          });
      break;
    }
    case Algorithm::kLimit: {
      queries::LimitOptions opts;
      opts.want = budget;
      opts.deadline = deadline;
      auto r = queries::TryLimitQuery(NoisyProxy(ds, present, 0.3, seed),
                                      stack.top, present, opts);
      trace.deadline_hit = r.ok() && r->deadline_hit;
      trace.algorithm_calls = r.ok() ? r->labeler_invocations : 0;
      trace.answer = Describe<queries::LimitResult>(
          r, [](const queries::LimitResult& a, std::ostringstream* os) {
            *os << ' ' << a.labeler_invocations << ' ' << a.satisfied << ' '
                << a.failed_oracle_calls << ' ' << a.deadline_hit;
            AppendIndices(a.found, os);
          });
      break;
    }
  }
  trace.attempts = stack.attempts();
  trace.failed_calls = stack.ctx.failed_calls.load();
  trace.labeled = stack.cache->labeled_indices();
  return trace;
}

void ExpectSameTrace(const QueryTrace& serial, const QueryTrace& batched) {
  EXPECT_EQ(serial.answer, batched.answer);
  // No round asks the oracle for a record the algorithm then ignores
  // (repeats of a labeled record are cache hits, so attempts may be
  // fewer).
  if (batched.algorithm_calls > 0) {
    EXPECT_LE(batched.attempts, batched.algorithm_calls);
  }
  EXPECT_EQ(serial.attempts, batched.attempts);
  EXPECT_EQ(serial.failed_calls, batched.failed_calls);
  EXPECT_EQ(serial.labeled, batched.labeled);
}

constexpr Algorithm kAlgorithms[] = {
    Algorithm::kAggregate,    Algorithm::kAggregateWhere,
    Algorithm::kSupgRecall,   Algorithm::kSupgPrecision,
    Algorithm::kThresholdSelect, Algorithm::kLimit};

/// (seed, budget, transient fault rate). Budgets 1, 25 and more than the
/// 500 records: a one-label query, a capped one, and one whose SUPG draws
/// repeat records and whose limit wants more matches than exist.
class BatchedLabelingTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t, double>> {
};

TEST_P(BatchedLabelingTest, MatchesOneRecordAtATime) {
  const auto [seed, budget, transient_rate] = GetParam();
  static const data::Dataset ds = TestDataset(500, 83);
  for (Algorithm algorithm : kAlgorithms) {
    SCOPED_TRACE(static_cast<int>(algorithm));
    const QueryTrace serial = RunAlgorithm(algorithm, ds, budget,
                                           transient_rate, seed, 0.0, true);
    const QueryTrace batched = RunAlgorithm(algorithm, ds, budget,
                                            transient_rate, seed, 0.0, false);
    ExpectSameTrace(serial, batched);
    EXPECT_FALSE(batched.deadline_hit);
    if (budget > 1) {
      EXPECT_GT(batched.attempts, 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsBudgetsFaults, BatchedLabelingTest,
    ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3}),
                       ::testing::Values(size_t{1}, size_t{25}, size_t{800}),
                       ::testing::Values(0.0, 0.2)));

// Under a virtual deadline the DeadlineOracle admits exactly the prefix of
// a batch that the per-record loop would have forwarded, so the degraded
// answer is the same bit for bit, with and without faults.
TEST(BatchedLabelingDeadlineTest, VirtualDeadlineCutsWhereTheLoopDid) {
  const data::Dataset ds = TestDataset(500, 83);
  for (double transient_rate : {0.0, 0.2}) {
    for (Algorithm algorithm : kAlgorithms) {
      SCOPED_TRACE(static_cast<int>(algorithm));
      const QueryTrace serial =
          RunAlgorithm(algorithm, ds, /*budget=*/400, transient_rate,
                       /*seed=*/5, /*virtual_budget_ms=*/37.0, true);
      const QueryTrace batched =
          RunAlgorithm(algorithm, ds, /*budget=*/400, transient_rate,
                       /*seed=*/5, /*virtual_budget_ms=*/37.0, false);
      ExpectSameTrace(serial, batched);
      EXPECT_EQ(serial.deadline_hit, batched.deadline_hit);
      EXPECT_TRUE(batched.deadline_hit);
      EXPECT_LE(batched.attempts, 37u);
    }
  }
}

}  // namespace
}  // namespace tasti::serve
