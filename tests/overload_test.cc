// Tests for the overload/degradation subsystem (DESIGN.md §15): deadline
// tokens and the DeadlineOracle enforcement point, budget-capped retry
// backoff, CoDel-style load shedding with priority classes, deterministic
// shed/degrade behavior of the TastiServer under virtual-time deadlines,
// the hedged + partial scatter-gather path of the ShardedServer, and the
// degraded mergers' monotone confidence widening as shards go absent.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/scorer.h"
#include "data/dataset.h"
#include "labeler/faults.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"
#include "queries/merge.h"
#include "serve/deadline.h"
#include "serve/monitor.h"
#include "serve/server.h"
#include "serve/shedder.h"
#include "shard/sharded_server.h"

namespace tasti {
namespace {

data::Dataset TestDataset(size_t n = 1500, uint64_t seed = 71) {
  data::DatasetOptions opts;
  opts.num_records = n;
  opts.seed = seed;
  return data::MakeNightStreet(opts);
}

serve::ServerOptions FastServerOptions() {
  serve::ServerOptions opts;
  opts.index.num_training_records = 150;
  opts.index.num_representatives = 150;
  opts.index.embedding_dim = 32;
  opts.index.hidden_dim = 64;
  opts.index.epochs = 10;
  opts.num_workers = 4;
  opts.seed = 72;
  return opts;
}

/// Blocks every call once the gate closes (records >= gate_from only), so
/// a worker can be parked inside an oracle call deterministically.
class GatedOracle : public labeler::FallibleLabeler {
 public:
  explicit GatedOracle(const data::Dataset* dataset, size_t gate_from = 0)
      : dataset_(dataset), gate_from_(gate_from) {}

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = false;
    }
    cv_.notify_all();
  }

  Result<data::LabelerOutput> TryLabel(size_t index) override {
    invocations_.fetch_add(1, std::memory_order_relaxed);
    if (index >= gate_from_) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return !closed_; });
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
  const size_t gate_from_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  std::atomic<size_t> invocations_{0};
};

/// Sleeps `delay_ms` per call for records >= slow_from while enabled — a
/// per-shard straggler for the hedging tests.
class SlowShardOracle : public labeler::FallibleLabeler {
 public:
  SlowShardOracle(const data::Dataset* dataset, size_t slow_from,
                  double delay_ms)
      : dataset_(dataset), slow_from_(slow_from), delay_ms_(delay_ms) {}

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  Result<data::LabelerOutput> TryLabel(size_t index) override {
    invocations_.fetch_add(1, std::memory_order_relaxed);
    if (enabled_.load(std::memory_order_relaxed) && index >= slow_from_) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms_));
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
  const size_t slow_from_;
  const double delay_ms_;
  std::atomic<bool> enabled_{false};
  std::atomic<size_t> invocations_{0};
};

/// Fails every call with Unavailable while the switch is on.
class FailSwitchOracle : public labeler::FallibleLabeler {
 public:
  explicit FailSwitchOracle(const data::Dataset* dataset)
      : dataset_(dataset) {}

  void set_failing(bool failing) {
    failing_.store(failing, std::memory_order_relaxed);
  }

  Result<data::LabelerOutput> TryLabel(size_t index) override {
    invocations_.fetch_add(1, std::memory_order_relaxed);
    if (failing_.load(std::memory_order_relaxed)) {
      return Status::Unavailable("oracle backend down");
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
  std::atomic<bool> failing_{false};
  std::atomic<size_t> invocations_{0};
};

// --- Deadline tokens ---

TEST(DeadlineTest, VirtualBudgetChargesAndExpires) {
  serve::Deadline d = serve::Deadline::VirtualBudget(10.0);
  EXPECT_FALSE(d.unbounded());
  EXPECT_DOUBLE_EQ(d.budget_ms(), 10.0);
  EXPECT_FALSE(d.expired());
  d.Charge(4.0);
  EXPECT_DOUBLE_EQ(d.spent_ms(), 4.0);
  EXPECT_DOUBLE_EQ(d.remaining_ms(), 6.0);
  // Copies share the budget: charging the copy advances the original.
  serve::Deadline copy = d;
  copy.Charge(6.0);
  EXPECT_TRUE(d.expired());
  EXPECT_TRUE(d.exhausted());
  EXPECT_DOUBLE_EQ(d.remaining_ms(), 0.0);
}

TEST(DeadlineTest, UnboundedNeverExpiresAndCancelIsSticky) {
  serve::Deadline unbounded;
  EXPECT_TRUE(unbounded.unbounded());
  unbounded.Charge(1e9);
  EXPECT_FALSE(unbounded.exhausted());
  unbounded.Cancel();  // no-op on unbounded tokens
  EXPECT_FALSE(unbounded.cancelled());

  serve::Deadline d = serve::Deadline::VirtualBudget(100.0);
  serve::Deadline copy = d;
  copy.Cancel();
  EXPECT_TRUE(d.cancelled());
  EXPECT_TRUE(d.exhausted());
  EXPECT_FALSE(d.expired());  // cancelled, not out of budget
}

TEST(DeadlineTest, WallDeadlineExpiresWithRealTime) {
  serve::Deadline d = serve::Deadline::WallAfter(1.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(d.expired());
  EXPECT_GT(d.spent_ms(), 0.0);
}

TEST(DeadlineOracleTest, RejectsOnceBudgetSpentWithoutTouchingInner) {
  data::Dataset ds = TestDataset(64);
  labeler::SimulatedLabeler truth(&ds);
  labeler::FallibleAdapter adapter(&truth);
  serve::Deadline deadline = serve::Deadline::VirtualBudget(3.0);
  serve::DeadlineOracle gated(&adapter, deadline, /*virtual_ms_per_call=*/1.0);

  // Three forwarded calls exhaust the 3 ms budget at 1 ms per call.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(gated.TryLabel(static_cast<size_t>(i)).ok());
  }
  EXPECT_TRUE(deadline.expired());
  Result<data::LabelerOutput> rejected = gated.TryLabel(3);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(gated.forwarded_calls(), 3u);
  EXPECT_EQ(gated.rejected_calls(), 1u);
  // The rejected call never reached the inner labeler: no oracle cost.
  EXPECT_EQ(adapter.invocations(), 3u);
}

// A batch is checked once, at its start: the admitted prefix is exactly
// what a one-call-at-a-time loop would have forwarded, the rejected tail
// gets no result, and the rejected calls never reach the inner labeler.
TEST(DeadlineOracleTest, BatchForwardsOnlyTheAdmittedPrefix) {
  data::Dataset ds = TestDataset(64);
  labeler::SimulatedLabeler truth(&ds);
  labeler::FallibleAdapter adapter(&truth);
  // 2.5 ms at 1 ms per call: calls start at 0, 1 and 2 ms spent.
  serve::Deadline deadline = serve::Deadline::VirtualBudget(2.5);
  EXPECT_EQ(deadline.AdmittedCalls(5, 1.0), 3u);
  serve::DeadlineOracle gated(&adapter, deadline, /*virtual_ms_per_call=*/1.0);

  std::vector<Result<data::LabelerOutput>> first =
      gated.TryLabelBatch({0, 1, 2, 3, 4});
  ASSERT_EQ(first.size(), 3u);
  for (const auto& r : first) EXPECT_TRUE(r.ok());
  EXPECT_EQ(gated.forwarded_calls(), 3u);
  EXPECT_EQ(gated.rejected_calls(), 2u);
  EXPECT_EQ(adapter.invocations(), 3u);
  EXPECT_DOUBLE_EQ(deadline.spent_ms(), 3.0);

  // Spent: the next batch is rejected whole.
  EXPECT_TRUE(gated.TryLabelBatch({5, 6}).empty());
  EXPECT_EQ(gated.rejected_calls(), 4u);
  EXPECT_EQ(adapter.invocations(), 3u);

  // A wall deadline with time left admits the whole batch; an unbounded
  // token always does.
  serve::DeadlineOracle wall(&adapter, serve::Deadline::WallAfter(60000.0));
  EXPECT_EQ(wall.TryLabelBatch({7, 8, 9}).size(), 3u);
  EXPECT_EQ(serve::Deadline::Unbounded().AdmittedCalls(9, 1.0), 9u);
}

// --- Satellite: retry backoff capped by the caller's budget ---

TEST(ResilientDeadlineTest, BackoffNeverSleepsPastCallerBudget) {
  data::Dataset ds = TestDataset(32);
  FailSwitchOracle flaky(&ds);
  flaky.set_failing(true);
  labeler::ResilientLabeler::Options ropts;
  ropts.retry.max_attempts = 5;
  ropts.retry.initial_backoff_ms = 100.0;  // far beyond the caller budget
  ropts.retry.jitter_fraction = 0.0;
  ropts.breaker.enabled = false;
  labeler::ResilientLabeler resilient(&flaky, ropts);

  const double before_ms = resilient.virtual_now_ms();
  Result<data::LabelerOutput> r = resilient.TryLabelWithin(0, /*budget_ms=*/5.0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // One attempt, then the 100 ms backoff would overrun the 5 ms budget:
  // the call fails immediately instead of sleeping past the deadline.
  EXPECT_EQ(resilient.stats().attempts, 1u);
  EXPECT_LT(resilient.virtual_now_ms() - before_ms, 5.0 + 1.0);
}

// --- Load shedder ---

TEST(LoadShedderTest, PriorityClassesShedInOrderAndHintRetry) {
  serve::ShedderOptions opts;
  opts.enabled = true;
  opts.target_wait_ms = 2.0;
  opts.initial_service_ms = 1.0;  // est wait == depth, in ms
  opts.interactive_multiplier = 8.0;
  opts.batch_multiplier = 3.0;
  opts.best_effort_multiplier = 1.0;
  serve::LoadShedder shedder(opts);

  // Depth 0 always admits, whatever the class.
  EXPECT_TRUE(shedder.Admit(serve::QueryPriority::kBestEffort, 0).admit);
  // Depth 4 (est 4 ms): above the best-effort threshold (2 ms), above
  // batch? no (6 ms), far below interactive (16 ms).
  serve::ShedDecision best = shedder.Admit(serve::QueryPriority::kBestEffort, 4);
  EXPECT_FALSE(best.admit);
  EXPECT_GT(best.retry_after_ms, 0.0);
  EXPECT_TRUE(shedder.Admit(serve::QueryPriority::kBatch, 4).admit);
  EXPECT_TRUE(shedder.Admit(serve::QueryPriority::kInteractive, 4).admit);
  // Depth 7 sheds batch too; interactive still rides.
  EXPECT_FALSE(shedder.Admit(serve::QueryPriority::kBatch, 7).admit);
  EXPECT_TRUE(shedder.Admit(serve::QueryPriority::kInteractive, 7).admit);

  serve::ShedderStats stats = shedder.stats();
  EXPECT_EQ(stats.shed_total, 2u);
  EXPECT_EQ(stats.shed_by_class[static_cast<size_t>(
                serve::QueryPriority::kBestEffort)],
            1u);
  EXPECT_EQ(
      stats.shed_by_class[static_cast<size_t>(serve::QueryPriority::kBatch)],
      1u);
}

TEST(LoadShedderTest, DisabledShedderAdmitsEverything) {
  serve::LoadShedder shedder(serve::ShedderOptions{});
  for (size_t depth = 0; depth < 1000; depth += 100) {
    EXPECT_TRUE(shedder.Admit(serve::QueryPriority::kBestEffort, depth).admit);
  }
  EXPECT_EQ(shedder.stats().shed_total, 0u);
}

TEST(LoadShedderTest, CoDelLatchFlipsOnSustainedWaitAndRecovers) {
  serve::ShedderOptions opts;
  opts.enabled = true;
  opts.target_wait_ms = 2.0;
  opts.interval_ms = 500.0;
  opts.initial_service_ms = 1.0;
  serve::LoadShedder shedder(opts);

  // Waits above target, but not yet for a full interval: latch stays off.
  shedder.OnQueryDone(/*queue_wait_ms=*/10.0, /*service_ms=*/1.0,
                      /*now_ms=*/0.0);
  EXPECT_FALSE(shedder.stats().overloaded);
  // Still above target one interval later: the latch flips.
  shedder.OnQueryDone(10.0, 1.0, /*now_ms=*/600.0);
  serve::ShedderStats stats = shedder.stats();
  EXPECT_TRUE(stats.overloaded);
  EXPECT_EQ(stats.overload_entries, 1u);
  // Overloaded: best-effort sheds at any nonzero depth.
  EXPECT_FALSE(shedder.Admit(serve::QueryPriority::kBestEffort, 1).admit);
  // An idle server still admits even while latched.
  EXPECT_TRUE(shedder.Admit(serve::QueryPriority::kBestEffort, 0).admit);
  // A wait back at target releases the latch.
  shedder.OnQueryDone(1.0, 1.0, /*now_ms=*/700.0);
  EXPECT_FALSE(shedder.stats().overloaded);
  EXPECT_TRUE(shedder.Admit(serve::QueryPriority::kBestEffort, 1).admit);
}

// --- Server-level shedding: deterministic under gated workers ---

TEST(ServerOverloadTest, ShedsDeterministicallyWhenWorkerIsParked) {
  data::Dataset ds = TestDataset(1200);

  // One run: park the single worker inside an oracle call, then submit a
  // fixed sequence and record which submissions were shed.
  auto run = [&ds] {
    GatedOracle oracle(&ds);
    serve::ServerOptions opts = FastServerOptions();
    opts.num_workers = 1;
    opts.degrade.shedder.enabled = true;
    opts.degrade.shedder.target_wait_ms = 2.0;
    opts.degrade.shedder.initial_service_ms = 1.0;
    opts.degrade.shedder.interactive_multiplier = 8.0;
    opts.degrade.shedder.batch_multiplier = 3.0;
    opts.degrade.shedder.best_effort_multiplier = 1.0;
    serve::TastiServer server(&ds, &oracle, opts);
    serve::ServerMonitor monitor({});
    server.AttachMonitor(&monitor);
    EXPECT_TRUE(server.Start().ok());
    oracle.CloseGate();

    core::CountScorer cars(data::ObjectClass::kCar);
    serve::QuerySpec spec;
    spec.kind = serve::QueryKind::kAggregate;
    spec.scorer = &cars;
    spec.error_target = 0.15;

    // The first query is admitted at depth 0 and parks the worker at the
    // closed gate, so every later submission sees a deterministic depth:
    // the EWMA never moves (no completions) and the queue never drains.
    Result<uint64_t> parked = server.Submit(spec);
    EXPECT_TRUE(parked.ok());
    // The worker may still be between dequeue and the oracle call; depth
    // (queued + executing) is 1 either way, so decisions are unaffected.

    std::vector<uint64_t> admitted = {*parked};
    std::vector<bool> shed_pattern;
    auto submit_class = [&](serve::QueryPriority priority, int count) {
      for (int i = 0; i < count; ++i) {
        serve::QuerySpec q = spec;
        q.priority = priority;
        q.client_id = 7;  // distinct from the parked query's client
        Result<uint64_t> id = server.Submit(q);
        shed_pattern.push_back(!id.ok());
        if (id.ok()) {
          admitted.push_back(*id);
        } else {
          EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);
          EXPECT_NE(id.status().message().find("retry after"),
                    std::string::npos);
        }
      }
    };
    // Depth starts at 1 (the parked query). Best-effort threshold 2 ms:
    // admits at depths 1 and 2, sheds from depth 3 on.
    submit_class(serve::QueryPriority::kBestEffort, 5);
    // Batch threshold 6 ms: depth is pinned at 3 by the sheds above, so
    // batch admits until its own admissions push depth past 6.
    submit_class(serve::QueryPriority::kBatch, 6);
    submit_class(serve::QueryPriority::kInteractive, 2);

    oracle.OpenGate();
    for (uint64_t id : admitted) {
      EXPECT_TRUE(server.Wait(id).status.ok());
    }
    server.Drain();
    const uint64_t shed = server.stats().queries_shed;
    const serve::ShedderStats sstats = server.shedder_stats();
    EXPECT_EQ(sstats.shed_total, shed);
    // The monitor saw every shed decision and exports it per class.
    EXPECT_NE(monitor.StatusLine().find("shed="), std::string::npos);
    server.Shutdown();
    return std::make_pair(shed_pattern, shed);
  };

  auto [pattern_a, shed_a] = run();
  auto [pattern_b, shed_b] = run();
  EXPECT_GT(shed_a, 0u);
  // Fixed submission order + quiescent EWMA => identical decisions.
  EXPECT_EQ(pattern_a, pattern_b);
  EXPECT_EQ(shed_a, shed_b);
  // Best-effort: admit, admit, shed, shed, shed (depths 1,2,3,3,3).
  const std::vector<bool> expected_best = {false, false, true, true, true};
  EXPECT_EQ(std::vector<bool>(pattern_a.begin(), pattern_a.begin() + 5),
            expected_best);
  // Interactive never shed at these depths.
  EXPECT_FALSE(pattern_a[pattern_a.size() - 1]);
  EXPECT_FALSE(pattern_a[pattern_a.size() - 2]);
}

// The monitor keeps no tallies of its own: its shed, submitted and
// completed samples are the shedder's and the server's stats, and its
// queue depth is submitted minus completed at poll time.
TEST(ServerOverloadTest, MonitorReadsShedAndQueryTalliesFromTheStats) {
  data::Dataset ds = TestDataset(1200);
  GatedOracle oracle(&ds);
  serve::ServerOptions opts = FastServerOptions();
  opts.num_workers = 1;
  opts.degrade.shedder.enabled = true;
  opts.degrade.shedder.target_wait_ms = 2.0;
  opts.degrade.shedder.initial_service_ms = 1.0;
  opts.degrade.shedder.interactive_multiplier = 8.0;
  opts.degrade.shedder.batch_multiplier = 3.0;
  opts.degrade.shedder.best_effort_multiplier = 1.0;
  serve::TastiServer server(&ds, &oracle, opts);
  serve::ServerMonitor monitor({});
  server.AttachMonitor(&monitor);
  ASSERT_TRUE(server.Start().ok());
  oracle.CloseGate();

  core::CountScorer cars(data::ObjectClass::kCar);
  serve::QuerySpec spec;
  spec.kind = serve::QueryKind::kAggregate;
  spec.scorer = &cars;
  spec.error_target = 0.15;
  std::vector<uint64_t> admitted;
  // The first query parks the only worker at the closed gate; the rest
  // queue behind it or are shed, best-effort first.
  for (serve::QueryPriority priority :
       {serve::QueryPriority::kInteractive, serve::QueryPriority::kBestEffort,
        serve::QueryPriority::kBestEffort, serve::QueryPriority::kBestEffort,
        serve::QueryPriority::kBestEffort, serve::QueryPriority::kBatch,
        serve::QueryPriority::kBatch, serve::QueryPriority::kBatch,
        serve::QueryPriority::kBatch, serve::QueryPriority::kBatch,
        serve::QueryPriority::kBatch, serve::QueryPriority::kBatch,
        serve::QueryPriority::kInteractive}) {
    serve::QuerySpec q = spec;
    q.priority = priority;
    Result<uint64_t> id = server.Submit(q);
    if (id.ok()) admitted.push_back(*id);
  }

  struct Read {
    std::vector<double> shed = std::vector<double>(serve::kNumQueryPriorities,
                                                   -1.0);
    double submitted = -1.0;
    double completed = -1.0;
    double depth = -1.0;
  };
  auto read = [&monitor] {
    Read out;
    for (const obs::LiveSample& sample : monitor.Collect().samples) {
      if (sample.name == "tasti_queries_shed_total") {
        for (size_t p = 0; p < serve::kNumQueryPriorities; ++p) {
          const std::pair<std::string, std::string> label = {
              "priority",
              serve::QueryPriorityName(static_cast<serve::QueryPriority>(p))};
          if (sample.labels == std::vector{label}) out.shed[p] = sample.value;
        }
      } else if (sample.name == "tasti_queries_submitted_total") {
        out.submitted = sample.value;
      } else if (sample.name == "tasti_queries_completed_total") {
        out.completed = sample.value;
      } else if (sample.name == "tasti_queue_depth") {
        out.depth = sample.value;
      }
    }
    return out;
  };

  // Parked: every admitted query is queued or executing.
  const Read parked = read();
  EXPECT_EQ(parked.depth, static_cast<double>(admitted.size()));
  EXPECT_EQ(parked.submitted, static_cast<double>(admitted.size()));

  oracle.OpenGate();
  for (uint64_t id : admitted) EXPECT_TRUE(server.Wait(id).status.ok());
  server.Drain();
  const Read done = read();
  const serve::ServerStats stats = server.stats();
  const serve::ShedderStats shed = server.shedder_stats();
  EXPECT_GT(shed.shed_total, 0u);
  for (size_t p = 0; p < serve::kNumQueryPriorities; ++p) {
    EXPECT_EQ(done.shed[p], static_cast<double>(shed.shed_by_class[p]))
        << serve::QueryPriorityName(static_cast<serve::QueryPriority>(p));
  }
  EXPECT_EQ(done.submitted, static_cast<double>(stats.queries_submitted));
  EXPECT_EQ(done.completed, static_cast<double>(stats.queries_completed));
  EXPECT_EQ(done.depth, 0.0);
  EXPECT_EQ(stats.queries_shed, shed.shed_total);
  server.Shutdown();
}

// --- Server-level deadlines: reproducible degradation in virtual time ---

TEST(ServerOverloadTest, VirtualDeadlineDegradesReproducibly) {
  data::Dataset ds = TestDataset(1500);

  auto run = [&ds](double deadline_ms) {
    labeler::SimulatedLabeler truth(&ds);
    labeler::FallibleAdapter adapter(&truth);
    serve::ServerOptions opts = FastServerOptions();
    opts.deterministic = true;
    opts.num_workers = 2;
    opts.degrade.virtual_ms_per_call = 1.0;
    serve::TastiServer server(&ds, &adapter, opts);
    EXPECT_TRUE(server.Start().ok());
    static core::CountScorer cars(data::ObjectClass::kCar);
    serve::QuerySpec spec;
    spec.kind = serve::QueryKind::kAggregate;
    spec.scorer = &cars;
    spec.error_target = 0.02;  // tight target: wants many samples
    spec.deadline_ms = deadline_ms;
    Result<uint64_t> id = server.Submit(spec);
    EXPECT_TRUE(id.ok());
    serve::QueryResponse response = server.Wait(*id);
    server.Drain();
    server.Shutdown();
    return response;
  };

  serve::QueryResponse full = run(/*deadline_ms=*/0.0);
  ASSERT_TRUE(full.status.ok());
  EXPECT_FALSE(full.degraded);
  EXPECT_EQ(full.guarantee, serve::GuaranteeLevel::kFull);

  serve::QueryResponse a = run(/*deadline_ms=*/25.0);
  serve::QueryResponse b = run(/*deadline_ms=*/25.0);
  ASSERT_TRUE(a.status.ok());
  EXPECT_TRUE(a.deadline_hit);
  EXPECT_TRUE(a.degraded);
  EXPECT_EQ(a.guarantee, serve::GuaranteeLevel::kReduced);
  // 25 virtual ms at 1 ms per logical call: at most 25 oracle calls, and
  // the honest interval is wider than the full run's.
  EXPECT_LE(a.aggregate.labeler_invocations, 25u);
  EXPECT_LT(a.aggregate.labeler_invocations,
            full.aggregate.labeler_invocations);
  EXPECT_GT(a.aggregate.half_width, full.aggregate.half_width);
  // No overrun past one phase-check interval (one per-call charge).
  EXPECT_LE(a.deadline_spent_ms, a.deadline_budget_ms + 1.0);
  // Virtual accounting: bit-identical degradation across runs.
  EXPECT_EQ(a.aggregate.estimate, b.aggregate.estimate);
  EXPECT_EQ(a.aggregate.half_width, b.aggregate.half_width);
  EXPECT_EQ(a.aggregate.labeler_invocations, b.aggregate.labeler_invocations);
  EXPECT_EQ(a.deadline_spent_ms, b.deadline_spent_ms);
  // Degradation shows up in the server tallies.
  // (stats were reset by Shutdown's scope end above; counted per run)
}

// A query's failed-rep repairs run after its answer but inside its
// deadline: they stop where the budget does, and the time they take is in
// the reported spend.
TEST(ServerOverloadTest, RepairsStayInsideTheQueryDeadline) {
  data::Dataset ds = TestDataset(1500);
  auto run = [&ds](double deadline_ms) {
    labeler::SimulatedLabeler truth(&ds);
    labeler::FaultSchedule broken;
    broken.permanent_rate = 0.25;
    broken.seed = 17;
    labeler::FaultInjectingLabeler oracle(&truth, broken);
    serve::ServerOptions opts = FastServerOptions();
    opts.num_workers = 1;
    opts.degrade.virtual_ms_per_call = 1.0;
    serve::TastiServer server(&ds, &oracle, opts);
    EXPECT_TRUE(server.Start().ok());
    // The build leaves more failed reps than one query repairs; then the
    // oracle heals.
    EXPECT_GT(server.index().num_failed_representatives(),
              serve::kMaxRepRepairsPerQuery);
    oracle.set_schedule(labeler::FaultSchedule{});
    static core::CountScorer cars(data::ObjectClass::kCar);
    serve::QuerySpec spec;
    spec.kind = serve::QueryKind::kAggregate;
    spec.scorer = &cars;
    spec.error_target = 0.2;
    spec.deadline_ms = deadline_ms;
    serve::QueryResponse response = server.Execute(spec);
    EXPECT_TRUE(server.CheckAttributionInvariant().ok());
    server.Shutdown();
    return response;
  };

  // An ample budget covers the answer and a full window of repairs, at
  // 1 virtual ms per call.
  const serve::QueryResponse ample = run(/*deadline_ms=*/1e6);
  ASSERT_TRUE(ample.status.ok());
  ASSERT_FALSE(ample.deadline_hit);
  ASSERT_EQ(ample.repaired_representatives, serve::kMaxRepRepairsPerQuery);
  // The aggregate asks for each record once, so its spend is one ms per
  // labeler invocation; the repairs add one ms each.
  const double answer_ms =
      static_cast<double>(ample.aggregate.labeler_invocations);
  ASSERT_GT(answer_ms, 0.0);
  EXPECT_EQ(ample.deadline_spent_ms,
            answer_ms + static_cast<double>(serve::kMaxRepRepairsPerQuery));

  // A budget for the answer plus five calls: the same answer, five repairs,
  // and not one call past the budget.
  const serve::QueryResponse tight = run(answer_ms + 5.0);
  ASSERT_TRUE(tight.status.ok());
  EXPECT_FALSE(tight.deadline_hit);
  EXPECT_EQ(tight.aggregate.estimate, ample.aggregate.estimate);
  EXPECT_EQ(tight.aggregate.labeler_invocations,
            ample.aggregate.labeler_invocations);
  EXPECT_EQ(tight.repaired_representatives, 5u);
  EXPECT_LE(tight.deadline_spent_ms, tight.deadline_budget_ms + 1.0);
  EXPECT_EQ(tight.deadline_spent_ms, answer_ms + 5.0);
}

TEST(ServerOverloadTest, DeadlineCountsSurfaceInStats) {
  data::Dataset ds = TestDataset(1200);
  labeler::SimulatedLabeler truth(&ds);
  labeler::FallibleAdapter adapter(&truth);
  serve::ServerOptions opts = FastServerOptions();
  opts.deterministic = true;
  opts.num_workers = 1;
  opts.degrade.virtual_ms_per_call = 1.0;
  serve::TastiServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());
  core::CountScorer cars(data::ObjectClass::kCar);
  serve::QuerySpec spec;
  spec.kind = serve::QueryKind::kAggregate;
  spec.scorer = &cars;
  spec.error_target = 0.02;
  spec.deadline_ms = 20.0;
  Result<uint64_t> id = server.Submit(spec);
  ASSERT_TRUE(id.ok());
  serve::QueryResponse response = server.Wait(*id);
  EXPECT_TRUE(response.deadline_hit);
  server.Drain();
  const serve::ServerStats stats = server.stats();
  EXPECT_GE(stats.deadline_expired, 1u);
  EXPECT_GE(stats.degraded_responses, 1u);
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
  server.Shutdown();
}

// --- Sharded serving: hedges and partial gather ---

TEST(ShardedOverloadTest, PartialGatherDegradesInsteadOfFailing) {
  data::Dataset ds = TestDataset(1600, 73);
  GatedOracle oracle(&ds, /*gate_from=*/ds.size() / 2);  // shard 1 only
  shard::ShardedServerOptions sopts;
  sopts.num_shards = 2;
  sopts.partial_gather = true;
  sopts.server = FastServerOptions();
  sopts.server.index.num_representatives = 80;
  sopts.server.index.num_training_records = 80;
  sopts.server.num_workers = 2;
  shard::ShardedServer server(&ds, &oracle, sopts);
  ASSERT_TRUE(server.Start().ok());

  core::CountScorer cars(data::ObjectClass::kCar);
  serve::QuerySpec spec;
  spec.kind = serve::QueryKind::kAggregate;
  spec.scorer = &cars;
  spec.error_target = 0.15;

  // Park shard 1's oracle (before anything warms the label caches) and
  // query under a gather deadline: the merge proceeds over shard 0 alone,
  // explicitly marked degraded.
  oracle.CloseGate();
  serve::QuerySpec bounded = spec;
  bounded.deadline_ms = 400.0;
  shard::ShardedQueryResponse degraded = server.Execute(bounded);
  ASSERT_TRUE(degraded.merged.status.ok());
  EXPECT_TRUE(degraded.degraded_gather);
  EXPECT_TRUE(degraded.merged.degraded);
  EXPECT_GE(degraded.merged.guarantee, serve::GuaranteeLevel::kReduced);
  ASSERT_EQ(degraded.shard_complete.size(), 2u);
  EXPECT_TRUE(degraded.shard_complete[0]);
  EXPECT_FALSE(degraded.shard_complete[1]);
  EXPECT_EQ(degraded.quality.absent, 1u);
  EXPECT_NEAR(degraded.quality.covered_fraction, 0.5, 1e-9);
  // The absent shard's partial carries the reason, not the merged status.
  EXPECT_FALSE(degraded.partials[1].status.ok());

  // Unblock the straggler so its abandoned sub-query can finish: the
  // next gather sees both shards and is not degraded.
  oracle.OpenGate();
  shard::ShardedQueryResponse full = server.Execute(spec);
  ASSERT_TRUE(full.merged.status.ok());
  EXPECT_FALSE(full.degraded_gather);
  EXPECT_EQ(full.quality.absent, 0u);

  // The cross-shard oracle ledger still balances: abandoned work is
  // still attributed.
  server.Drain();
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
  server.Shutdown();
}

TEST(ShardedOverloadTest, HedgeRedispatchesStragglerShard) {
  data::Dataset ds = TestDataset(1600, 74);
  SlowShardOracle oracle(&ds, /*slow_from=*/ds.size() / 2, /*delay_ms=*/10.0);
  shard::ShardedServerOptions sopts;
  sopts.num_shards = 2;
  sopts.hedge.enabled = true;
  sopts.hedge.min_delay_ms = 5.0;
  sopts.hedge.budget_fraction = 0.5;
  sopts.server = FastServerOptions();
  sopts.server.index.num_representatives = 80;
  sopts.server.index.num_training_records = 80;
  sopts.server.num_workers = 2;
  shard::ShardedServer server(&ds, &oracle, sopts);
  ASSERT_TRUE(server.Start().ok());
  oracle.set_enabled(true);  // only query-time calls are slow

  core::PresenceScorer present(data::ObjectClass::kCar);
  serve::QuerySpec spec;
  spec.kind = serve::QueryKind::kSupgRecall;
  spec.scorer = &present;
  spec.target = 0.9;
  spec.budget = 40;
  shard::ShardedQueryResponse response = server.Execute(spec);
  ASSERT_TRUE(response.merged.status.ok());
  // Shard 1 (10 ms per oracle call) cannot answer within the 5 ms hedge
  // delay, so at least its sub-query was re-dispatched.
  EXPECT_GE(response.hedged_shards, 1u);
  EXPECT_FALSE(response.degraded_gather);  // everyone answered eventually
  ASSERT_EQ(response.shard_complete.size(), 2u);
  EXPECT_TRUE(response.shard_complete[0]);
  EXPECT_TRUE(response.shard_complete[1]);

  oracle.set_enabled(false);
  server.Drain();
  // Hedging doubles some sub-queries; the attribution ledger must still
  // tile the oracle exactly (losers are abandoned, not uncounted).
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
  server.Shutdown();
}

// --- Satellite: degraded mergers widen monotonically (all six kinds) ---

TEST(DegradedMergeTest, AggregateWidensMonotonicallyWithMissingMass) {
  // Four equal shards with spread estimates; masks keep the envelope
  // anchored by shards 0 and 3 while the absent set grows.
  std::vector<queries::AggregationResult> parts(4);
  const double estimates[] = {0.2, 0.4, 0.6, 0.8};
  for (size_t s = 0; s < 4; ++s) {
    parts[s].estimate = estimates[s];
    parts[s].half_width = 0.05;
    parts[s].labeler_invocations = 100;
    parts[s].converged = true;
  }
  const std::vector<size_t> sizes = {250, 250, 250, 250};

  queries::GatherQuality q0, q1, q2;
  queries::AggregationResult m0 = queries::MergeAggregates(
      parts, sizes, {true, true, true, true}, &q0);
  queries::AggregationResult m1 = queries::MergeAggregates(
      parts, sizes, {true, false, true, true}, &q1);
  queries::AggregationResult m2 = queries::MergeAggregates(
      parts, sizes, {true, false, false, true}, &q2);

  // All-present is the full-coverage merge: nothing widens.
  queries::AggregationResult legacy = queries::MergeAggregates(
      parts, sizes, {true, true, true, true}, nullptr);
  EXPECT_EQ(m0.estimate, legacy.estimate);
  EXPECT_EQ(m0.half_width, legacy.half_width);
  EXPECT_EQ(q0.absent, 0u);
  EXPECT_DOUBLE_EQ(q0.covered_fraction, 1.0);

  // Confidence widens strictly and monotonically with missing mass.
  EXPECT_GT(m1.half_width, m0.half_width);
  EXPECT_GT(m2.half_width, m1.half_width);
  EXPECT_FALSE(m1.converged);
  EXPECT_FALSE(m2.converged);
  EXPECT_DOUBLE_EQ(q1.covered_fraction, 0.75);
  EXPECT_DOUBLE_EQ(q2.covered_fraction, 0.5);
  // The estimate stays inside the present-shard envelope.
  EXPECT_GT(m2.estimate, 0.15);
  EXPECT_LT(m2.estimate, 0.85);
}

TEST(DegradedMergeTest, PredicateAggregateWidensMonotonically) {
  std::vector<queries::PredicateAggregationResult> parts(4);
  for (size_t s = 0; s < 4; ++s) {
    parts[s].estimate = 0.5;
    parts[s].half_width = 0.05;
    parts[s].sample_matches = 40;
    parts[s].labeler_invocations = 100;
    parts[s].converged = true;
  }
  const std::vector<size_t> sizes = {250, 250, 250, 250};

  queries::GatherQuality q1, q2;
  queries::PredicateAggregationResult m0 =
      queries::MergePredicateAggregates(parts, sizes, {true, true, true, true},
                                        nullptr);
  queries::PredicateAggregationResult m1 =
      queries::MergePredicateAggregates(parts, sizes, {true, false, true, true},
                                        &q1);
  queries::PredicateAggregationResult m2 =
      queries::MergePredicateAggregates(parts, sizes,
                                        {true, false, false, true}, &q2);
  // Identical partials: the base Hajek merge is the same for any subset,
  // so the widening term isolates the missing-mass penalty.
  EXPECT_GT(m1.half_width, m0.half_width);
  EXPECT_GT(m2.half_width, m1.half_width);
  EXPECT_FALSE(m1.converged);
  EXPECT_EQ(q1.absent, 1u);
  EXPECT_EQ(q2.absent, 2u);
}

TEST(DegradedMergeTest, SupgReportsReducedEffectiveTarget) {
  std::vector<queries::SupgResult> parts(3);
  parts[0].selected = {1, 2};
  parts[1].selected = {0, 5};
  parts[2].selected = {3};
  for (auto& p : parts) p.labeler_invocations = 50;
  const std::vector<size_t> offsets = {0, 100, 200};
  const std::vector<size_t> sizes = {100, 100, 100};

  queries::GatherQuality q1, q2;
  queries::SupgResult m1 = queries::MergeSupg(
      parts, offsets, sizes, {true, true, false}, /*recall_target=*/0.9, &q1);
  queries::SupgResult m2 = queries::MergeSupg(
      parts, offsets, sizes, {true, false, false}, /*recall_target=*/0.9, &q2);

  // The guarantee weakens monotonically: recall can only be promised over
  // the covered record mass.
  EXPECT_NEAR(q1.effective_target, 0.9 * 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(q2.effective_target, 0.9 * 1.0 / 3.0, 1e-9);
  EXPECT_GT(q1.effective_target, q2.effective_target);
  // Selections come from present shards only (global ids via offsets).
  EXPECT_EQ(m1.selected, (std::vector<size_t>{1, 2, 100, 105}));
  EXPECT_EQ(m2.selected, (std::vector<size_t>{1, 2}));
}

TEST(DegradedMergeTest, SupgPrecisionSubsetKeepsPresentShardsOnly) {
  // Precision-target SUPG uses the same merger with recall_target = 0;
  // the degraded gather reports coverage rather than a scaled target.
  std::vector<queries::SupgResult> parts(2);
  parts[0].selected = {0};
  parts[1].selected = {1};
  const std::vector<size_t> offsets = {0, 50};
  const std::vector<size_t> sizes = {50, 50};
  queries::GatherQuality q;
  queries::SupgResult m = queries::MergeSupg(
      parts, offsets, sizes, {false, true}, /*recall_target=*/0.0, &q);
  EXPECT_EQ(m.selected, (std::vector<size_t>{51}));
  EXPECT_DOUBLE_EQ(q.covered_fraction, 0.5);
  EXPECT_DOUBLE_EQ(q.effective_target, 0.0);
}

TEST(DegradedMergeTest, ThresholdSelectSubsetsAndReportsCoverage) {
  std::vector<queries::ThresholdSelectResult> parts(3);
  parts[0].selected = {1};
  parts[0].threshold = 0.4;
  parts[1].selected = {2};
  parts[1].threshold = 0.6;
  parts[2].selected = {0};
  parts[2].threshold = 0.5;
  const std::vector<size_t> offsets = {0, 10, 20};
  const std::vector<size_t> sizes = {10, 10, 10};

  queries::GatherQuality q1, q2;
  queries::ThresholdSelectResult m1 = queries::MergeThresholdSelects(
      parts, offsets, sizes, {true, true, false}, &q1);
  queries::ThresholdSelectResult m2 = queries::MergeThresholdSelects(
      parts, offsets, sizes, {false, true, false}, &q2);
  EXPECT_EQ(m1.selected, (std::vector<size_t>{1, 12}));
  EXPECT_EQ(m2.selected, (std::vector<size_t>{12}));
  // Coverage shrinks monotonically as shards go absent.
  EXPECT_GT(q1.covered_fraction, q2.covered_fraction);
}

TEST(DegradedMergeTest, LimitHandlesShortPartialListAndAbsentShards) {
  // The limit router stops early, so partials may cover a prefix of the
  // shards; absent shards inside the prefix are skipped.
  std::vector<queries::LimitResult> parts(2);
  parts[0].found = {3, 4};
  parts[0].satisfied = false;
  parts[1].found = {1};
  parts[1].satisfied = false;
  const std::vector<size_t> offsets = {0, 100, 200};
  const std::vector<size_t> sizes = {100, 100, 100};

  queries::GatherQuality q;
  queries::LimitResult merged = queries::MergeLimits(
      parts, offsets, sizes, {true, false, false}, /*want=*/5, &q);
  EXPECT_EQ(merged.found, (std::vector<size_t>{3, 4}));
  EXPECT_EQ(q.absent, 2u);
  EXPECT_NEAR(q.covered_fraction, 1.0 / 3.0, 1e-9);
}

TEST(ShardedOverloadTest, LimitPartialGatherStopsAtVirtualDeadline) {
  data::Dataset ds = TestDataset(1600, 75);
  labeler::SimulatedLabeler truth(&ds);
  labeler::FallibleAdapter adapter(&truth);
  shard::ShardedServerOptions sopts;
  sopts.num_shards = 4;
  sopts.partial_gather = true;
  sopts.server = FastServerOptions();
  sopts.server.index.num_representatives = 60;
  sopts.server.index.num_training_records = 60;
  sopts.server.deterministic = true;
  sopts.server.num_workers = 1;
  sopts.server.degrade.virtual_ms_per_call = 1.0;
  shard::ShardedServer server(&ds, &adapter, sopts);
  ASSERT_TRUE(server.Start().ok());

  core::AtLeastCountScorer busy(data::ObjectClass::kCar, 2);
  serve::QuerySpec spec;
  spec.kind = serve::QueryKind::kLimit;
  spec.scorer = &busy;
  spec.want = 1000000;  // unsatisfiable: the scan runs until the deadline
  spec.deadline_ms = 30.0;

  shard::ShardedQueryResponse response = server.Execute(spec);
  ASSERT_TRUE(response.merged.status.ok());
  // The 30 virtual-ms budget cannot cover four shards' full scans: the
  // router stopped early and reported the unqueried shards as absent.
  EXPECT_TRUE(response.degraded_gather);
  EXPECT_TRUE(response.merged.degraded);
  EXPECT_LT(response.quality.covered_fraction, 1.0);
  EXPECT_GT(response.quality.absent, 0u);
  // Whatever was found is still real and globally addressed.
  for (size_t id : response.merged.limit.found) {
    EXPECT_LT(id, ds.size());
  }
  server.Drain();
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
  server.Shutdown();
}

}  // namespace
}  // namespace tasti
