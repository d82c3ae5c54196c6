// Chaos tests (ctest -L chaos): fault injection, retry/backoff, circuit
// breaking, degraded index construction, degraded queries, session
// self-healing, and on-disk integrity checking.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <variant>
#include <vector>

#include "api/session.h"
#include "core/index.h"
#include "core/index_stats.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "core/serialize.h"
#include "data/dataset.h"
#include "labeler/faults.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"
#include "nn/mlp.h"
#include "nn/serialize.h"
#include "queries/aggregation.h"
#include "queries/limit.h"
#include "queries/noguarantee.h"
#include "queries/predicate_aggregation.h"
#include "queries/supg.h"
#include "serve/server.h"
#include "util/random.h"
#include "util/status.h"

namespace tasti {
namespace {

data::Dataset SmallDataset(size_t n = 2000, uint64_t seed = 13) {
  data::DatasetOptions opts;
  opts.num_records = n;
  opts.seed = seed;
  return data::MakeNightStreet(opts);
}

core::IndexOptions FastIndexOptions() {
  core::IndexOptions opts;
  opts.num_training_records = 200;
  opts.num_representatives = 200;
  opts.embedding_dim = 16;
  opts.hidden_dim = 32;
  opts.epochs = 10;
  opts.k = 5;
  opts.seed = 3;
  return opts;
}

// ---------- Schedule parsing ----------

TEST(FaultScheduleTest, ParsesFullSpec) {
  Result<labeler::FaultSchedule> r = labeler::ParseFaultSchedule(
      "transient=0.1,timeout=0.05,corrupt=0.01,throttle=100:8,crash=500:100,"
      "crash=900:50,perm=3;7;11,perm-rate=0.002,latency=4,timeout-latency=80,"
      "seed=9");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const labeler::FaultSchedule& s = *r;
  EXPECT_DOUBLE_EQ(s.transient_rate, 0.1);
  EXPECT_DOUBLE_EQ(s.timeout_rate, 0.05);
  EXPECT_DOUBLE_EQ(s.corrupt_rate, 0.01);
  EXPECT_EQ(s.throttle_period, 100u);
  EXPECT_EQ(s.throttle_burst, 8u);
  ASSERT_EQ(s.crash_windows.size(), 2u);
  EXPECT_EQ(s.crash_windows[0].begin, 500u);
  EXPECT_EQ(s.crash_windows[0].end, 600u);
  EXPECT_EQ(s.crash_windows[1].begin, 900u);
  EXPECT_EQ(s.crash_windows[1].end, 950u);
  EXPECT_EQ(s.permanent_failures, (std::vector<size_t>{3, 7, 11}));
  EXPECT_DOUBLE_EQ(s.permanent_rate, 0.002);
  EXPECT_DOUBLE_EQ(s.base_latency_ms, 4.0);
  EXPECT_DOUBLE_EQ(s.timeout_latency_ms, 80.0);
  EXPECT_EQ(s.seed, 9u);
}

TEST(FaultScheduleTest, RejectsBadSpecs) {
  EXPECT_FALSE(labeler::ParseFaultSchedule("transient=1.5").ok());
  EXPECT_FALSE(labeler::ParseFaultSchedule("nonsense=1").ok());
  EXPECT_FALSE(labeler::ParseFaultSchedule("throttle=4:9").ok());
  EXPECT_FALSE(labeler::ParseFaultSchedule("transient").ok());
}

// ---------- Fault injector ----------

TEST(FaultInjectorTest, DeterministicAcrossRuns) {
  data::Dataset ds = SmallDataset(200);
  labeler::FaultSchedule sched;
  sched.transient_rate = 0.3;
  sched.timeout_rate = 0.1;
  sched.corrupt_rate = 0.1;
  sched.seed = 42;

  auto run = [&] {
    labeler::SimulatedLabeler sim(&ds);
    labeler::FaultInjectingLabeler inj(&sim, sched);
    std::vector<int> outcomes;
    for (size_t i = 0; i < ds.size(); ++i) {
      Result<data::LabelerOutput> r = inj.TryLabel(i);
      outcomes.push_back(r.ok() ? -1 : static_cast<int>(r.status().code()));
    }
    return outcomes;
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultInjectorTest, PermanentFailuresAreStickyAndNonRetryable) {
  data::Dataset ds = SmallDataset(50);
  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.permanent_failures = {3, 7};
  labeler::FaultInjectingLabeler inj(&sim, sched);

  EXPECT_TRUE(inj.IsPermanentlyFailed(3));
  EXPECT_FALSE(inj.IsPermanentlyFailed(4));
  for (int attempt = 0; attempt < 5; ++attempt) {
    Result<data::LabelerOutput> r = inj.TryLabel(3);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_TRUE(inj.TryLabel(4).ok());
  // Every attempt counted, failed or not.
  EXPECT_EQ(inj.invocations(), 6u);
  EXPECT_EQ(inj.fault_counts().permanent, 5u);
}

TEST(FaultInjectorTest, ThrottleBurstsByGlobalAttempt) {
  data::Dataset ds = SmallDataset(50);
  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.throttle_period = 4;
  sched.throttle_burst = 2;
  labeler::FaultInjectingLabeler inj(&sim, sched);

  // Attempts 0,1 of every period of 4 are throttled.
  std::vector<bool> expect_throttled = {true, true, false, false,
                                        true, true, false, false};
  for (size_t i = 0; i < expect_throttled.size(); ++i) {
    Result<data::LabelerOutput> r = inj.TryLabel(i % ds.size());
    if (expect_throttled[i]) {
      ASSERT_FALSE(r.ok()) << "attempt " << i;
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    } else {
      EXPECT_TRUE(r.ok()) << "attempt " << i;
    }
  }
  EXPECT_EQ(inj.fault_counts().throttle, 4u);
}

TEST(FaultInjectorTest, CrashWindowFailsEveryCallInside) {
  data::Dataset ds = SmallDataset(50);
  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.crash_windows = {{2, 5}};
  labeler::FaultInjectingLabeler inj(&sim, sched);

  for (size_t attempt = 0; attempt < 8; ++attempt) {
    Result<data::LabelerOutput> r = inj.TryLabel(attempt % ds.size());
    const bool in_window = attempt >= 2 && attempt < 5;
    EXPECT_EQ(r.ok(), !in_window) << "attempt " << attempt;
    if (in_window) {
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    }
  }
  EXPECT_EQ(inj.fault_counts().crash, 3u);
}

TEST(FaultInjectorTest, TransientFaultsEventuallySucceedOnRetry) {
  data::Dataset ds = SmallDataset(100);
  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.transient_rate = 0.5;
  sched.seed = 17;
  labeler::FaultInjectingLabeler inj(&sim, sched);

  for (size_t i = 0; i < ds.size(); ++i) {
    bool succeeded = false;
    for (int attempt = 0; attempt < 40 && !succeeded; ++attempt) {
      succeeded = inj.TryLabel(i).ok();
    }
    EXPECT_TRUE(succeeded) << "record " << i;
  }
  EXPECT_GT(inj.fault_counts().transient, 0u);
}

TEST(FaultInjectorTest, CorruptOutputsAreWellFormedButWrong) {
  data::Dataset ds = SmallDataset(100);
  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.corrupt_rate = 1.0;
  sched.seed = 5;
  labeler::FaultInjectingLabeler inj(&sim, sched);

  core::CountScorer scorer(data::ObjectClass::kCar);
  labeler::SimulatedLabeler truth(&ds);
  size_t differing = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    Result<data::LabelerOutput> r = inj.TryLabel(i);
    ASSERT_TRUE(r.ok());  // corruption is a *silent* fault
    if (scorer.Score(*r) != scorer.Score(truth.Label(i))) ++differing;
  }
  EXPECT_EQ(inj.fault_counts().corrupt, ds.size());
  // Seeded garbage: most corrupted labels change the score.
  EXPECT_GT(differing, ds.size() / 2);
}

// ---------- Resilient labeler ----------

TEST(ResilientLabelerTest, RetriesTransientFaultsToSuccess) {
  data::Dataset ds = SmallDataset(300);
  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.transient_rate = 0.3;
  sched.timeout_rate = 0.1;
  sched.seed = 23;
  labeler::FaultInjectingLabeler inj(&sim, sched);
  labeler::ResilientLabeler::Options opts;
  opts.retry.max_attempts = 10;
  opts.breaker.enabled = false;
  labeler::ResilientLabeler oracle(&inj, opts);

  for (size_t i = 0; i < ds.size(); ++i) {
    EXPECT_TRUE(oracle.TryLabel(i).ok()) << "record " << i;
  }
  EXPECT_EQ(oracle.stats().successes, ds.size());
  EXPECT_EQ(oracle.stats().failures, 0u);
  EXPECT_GT(oracle.stats().retries, 0u);
  // invocations() passes through: every physical attempt counts.
  EXPECT_EQ(oracle.invocations(), oracle.stats().attempts);
  EXPECT_GT(oracle.invocations(), ds.size());
  // Virtual time advanced by latencies and backoffs, no real sleeping.
  EXPECT_GT(oracle.virtual_now_ms(), 0.0);
}

TEST(ResilientLabelerTest, PermanentFailureIsNotRetried) {
  data::Dataset ds = SmallDataset(50);
  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.permanent_failures = {9};
  labeler::FaultInjectingLabeler inj(&sim, sched);
  labeler::ResilientLabeler oracle(&inj, {});

  Result<data::LabelerOutput> r = oracle.TryLabel(9);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(oracle.stats().attempts, 1u);
  EXPECT_EQ(oracle.stats().retries, 0u);
}

TEST(ResilientLabelerTest, DeadlineBoundsRetries) {
  data::Dataset ds = SmallDataset(50);
  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.transient_rate = 1.0;
  sched.base_latency_ms = 50.0;
  labeler::FaultInjectingLabeler inj(&sim, sched);
  labeler::ResilientLabeler::Options opts;
  opts.retry.max_attempts = 100;
  opts.retry.call_deadline_ms = 120.0;  // fits 2-3 attempts at 50 ms
  opts.breaker.enabled = false;
  labeler::ResilientLabeler oracle(&inj, opts);

  Result<data::LabelerOutput> r = oracle.TryLabel(0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(oracle.stats().attempts, 10u);
}

TEST(ResilientLabelerTest, BreakerOpensRejectsAndRecovers) {
  data::Dataset ds = SmallDataset(50);
  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.transient_rate = 1.0;  // hard outage
  labeler::FaultInjectingLabeler inj(&sim, sched);
  labeler::ResilientLabeler::Options opts;
  opts.retry.max_attempts = 4;
  opts.breaker.failure_threshold = 8;
  opts.breaker.cooldown_ms = 100.0;
  opts.breaker.half_open_successes = 2;
  std::vector<labeler::BreakerState> transitions;
  opts.on_breaker_transition = [&transitions](labeler::BreakerState state) {
    transitions.push_back(state);
  };
  labeler::ResilientLabeler oracle(&inj, opts);

  // Two failing calls (4 attempts each) trip the breaker.
  EXPECT_FALSE(oracle.TryLabel(0).ok());
  EXPECT_FALSE(oracle.TryLabel(1).ok());
  EXPECT_EQ(oracle.breaker_state(), labeler::BreakerState::kOpen);
  EXPECT_EQ(oracle.stats().breaker_opens, 1u);

  // While open, calls are rejected without touching the oracle.
  const size_t attempts_when_open = oracle.stats().attempts;
  EXPECT_FALSE(oracle.TryLabel(2).ok());
  EXPECT_EQ(oracle.stats().attempts, attempts_when_open);
  EXPECT_GT(oracle.stats().rejected_by_breaker, 0u);

  // Outage heals; after the cooldown the breaker probes and closes.
  inj.set_schedule(labeler::FaultSchedule{});
  oracle.AdvanceVirtualTime(opts.breaker.cooldown_ms);
  EXPECT_TRUE(oracle.TryLabel(3).ok());
  EXPECT_EQ(oracle.breaker_state(), labeler::BreakerState::kHalfOpen);
  EXPECT_TRUE(oracle.TryLabel(4).ok());
  EXPECT_EQ(oracle.breaker_state(), labeler::BreakerState::kClosed);
  EXPECT_EQ(oracle.stats().breaker_closes, 1u);
  // The callback saw every transition, once each, in order.
  EXPECT_EQ(transitions, (std::vector<labeler::BreakerState>{
                             labeler::BreakerState::kOpen,
                             labeler::BreakerState::kHalfOpen,
                             labeler::BreakerState::kClosed}));
}

TEST(ResilientLabelerTest, BatchIsolatesPartialFailures) {
  data::Dataset ds = SmallDataset(50);
  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.permanent_failures = {1, 3};
  labeler::FaultInjectingLabeler inj(&sim, sched);
  labeler::ResilientLabeler oracle(&inj, {});

  std::vector<Result<data::LabelerOutput>> batch =
      oracle.TryLabelBatch({0, 1, 2, 3, 4});
  ASSERT_EQ(batch.size(), 5u);
  std::vector<size_t> failed;
  for (size_t pos = 0; pos < batch.size(); ++pos) {
    if (!batch[pos].ok()) failed.push_back(pos);
  }
  EXPECT_EQ(failed, (std::vector<size_t>{1, 3}));
  EXPECT_EQ(batch[1].status().code(), StatusCode::kFailedPrecondition);
  // Permanent failures are not retried: one attempt per record.
  EXPECT_EQ(oracle.stats().attempts, 5u);
  EXPECT_EQ(oracle.invocations(), 5u);
}

// ---------- Batch labeling ----------

/// Records every batch and every single call that reaches it, then labels
/// through the wrapped oracle.
class RecordingLabeler : public labeler::FallibleLabeler {
 public:
  explicit RecordingLabeler(labeler::FallibleLabeler* inner) : inner_(inner) {}

  Result<data::LabelerOutput> TryLabel(size_t index) override {
    calls.push_back(index);
    return inner_->TryLabel(index);
  }
  std::vector<Result<data::LabelerOutput>> TryLabelBatch(
      const std::vector<size_t>& indices) override {
    batches.push_back(indices);
    return FallibleLabeler::TryLabelBatch(indices);
  }
  size_t num_records() const override { return inner_->num_records(); }
  size_t invocations() const override { return inner_->invocations(); }
  void ResetInvocations() override { inner_->ResetInvocations(); }

  std::vector<size_t> calls;
  std::vector<std::vector<size_t>> batches;

 private:
  labeler::FallibleLabeler* inner_;
};

TEST(BatchLabelTest, CachingBatchAnswersHitsAndForwardsDistinctMisses) {
  data::Dataset ds = SmallDataset(50);
  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.permanent_failures = {7};
  labeler::FaultInjectingLabeler inj(&sim, sched);
  RecordingLabeler recorder(&inj);
  labeler::CachingFallibleLabeler cache(&recorder);
  ASSERT_TRUE(cache.TryLabel(2).ok());
  recorder.calls.clear();

  const std::vector<size_t> request = {5, 2, 7, 5, 1};
  std::vector<Result<data::LabelerOutput>> got = cache.TryLabelBatch(request);

  // Hits never reach the inner labeler; the distinct misses go down as one
  // batch in request order.
  ASSERT_EQ(recorder.batches.size(), 1u);
  EXPECT_EQ(recorder.batches[0], (std::vector<size_t>{5, 7, 1}));
  EXPECT_EQ(recorder.calls, (std::vector<size_t>{5, 7, 1}));
  // Output is in request order.
  ASSERT_EQ(got.size(), request.size());
  for (size_t pos = 0; pos < request.size(); ++pos) {
    if (request[pos] == 7) {
      EXPECT_FALSE(got[pos].ok());
      continue;
    }
    ASSERT_TRUE(got[pos].ok()) << "position " << pos;
    const auto& label = std::get<data::VideoLabel>(*got[pos]);
    const auto& truth = std::get<data::VideoLabel>(ds.ground_truth[request[pos]]);
    EXPECT_EQ(label.boxes.size(), truth.boxes.size()) << "position " << pos;
  }
  EXPECT_EQ(cache.labeled_indices(), (std::vector<size_t>{2, 5, 1}));

  // The failure was not cached: asking again reaches the oracle again,
  // while the now-cached records stay free.
  recorder.batches.clear();
  got = cache.TryLabelBatch({1, 7});
  ASSERT_EQ(recorder.batches.size(), 1u);
  EXPECT_EQ(recorder.batches[0], (std::vector<size_t>{7}));
  EXPECT_TRUE(got[0].ok());
  EXPECT_FALSE(got[1].ok());

  // An all-hit batch makes no inner call at all.
  recorder.batches.clear();
  got = cache.TryLabelBatch({1, 2, 5});
  EXPECT_TRUE(recorder.batches.empty());
  EXPECT_EQ(cache.last_call_latency_ms(), 0.0);
}

TEST(BatchLabelTest, BestEffortBatchSubstitutesFallbackPerFailure) {
  data::Dataset ds = SmallDataset(50);
  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.permanent_failures = {3, 8};
  labeler::FaultInjectingLabeler inj(&sim, sched);
  RecordingLabeler recorder(&inj);
  labeler::BestEffortLabeler best_effort(
      &recorder, labeler::DefaultLabelFor(ds.modality));

  std::vector<data::LabelerOutput> labels =
      best_effort.LabelBatch({3, 4, 8, 9});
  ASSERT_EQ(recorder.batches.size(), 1u);
  EXPECT_EQ(recorder.batches[0], (std::vector<size_t>{3, 4, 8, 9}));
  ASSERT_EQ(labels.size(), 4u);
  EXPECT_EQ(best_effort.failures(), 2u);
  EXPECT_TRUE(std::get<data::VideoLabel>(labels[0]).boxes.empty());
  EXPECT_TRUE(std::get<data::VideoLabel>(labels[2]).boxes.empty());
  EXPECT_EQ(std::get<data::VideoLabel>(labels[3]).boxes.size(),
            std::get<data::VideoLabel>(ds.ground_truth[9]).boxes.size());
}

// ---------- Degraded index construction ----------

TEST(DegradedBuildTest, TransientOnlyBuildIsBitIdenticalToFaultFree) {
  data::Dataset ds = SmallDataset();
  const core::IndexOptions opts = FastIndexOptions();

  labeler::SimulatedLabeler clean_labeler(&ds);
  labeler::FallibleAdapter clean(&clean_labeler);
  core::TastiIndex baseline = core::TastiIndex::Build(ds, &clean, opts);

  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.transient_rate = 0.15;
  sched.timeout_rate = 0.05;  // total drop rate 20%
  sched.seed = 77;
  labeler::FaultInjectingLabeler inj(&sim, sched);
  labeler::ResilientLabeler::Options ropts;
  ropts.retry.max_attempts = 10;  // drop^10 ~ 1e-7: every call recovers
  ropts.breaker.enabled = false;
  labeler::ResilientLabeler oracle(&inj, ropts);
  core::TastiIndex chaotic = core::TastiIndex::Build(ds, &oracle, opts);

  EXPECT_EQ(chaotic.num_failed_representatives(), 0u);
  EXPECT_GT(inj.fault_counts().total(), 0u);

  Result<std::string> a = core::IndexSerializer::SerializeToString(baseline);
  Result<std::string> b = core::IndexSerializer::SerializeToString(chaotic);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);  // byte-for-byte identical
}

TEST(DegradedBuildTest, PermanentFailuresReportedAndExcluded) {
  data::Dataset ds = SmallDataset();
  const core::IndexOptions opts = FastIndexOptions();

  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.permanent_rate = 0.05;
  sched.seed = 11;
  labeler::FaultInjectingLabeler inj(&sim, sched);
  labeler::ResilientLabeler oracle(&inj, {});
  core::TastiIndex index = core::TastiIndex::Build(ds, &oracle, opts);

  // Exactly the permanently-failed representatives are reported.
  std::vector<size_t> expected;
  for (size_t rep : index.rep_record_ids()) {
    if (inj.IsPermanentlyFailed(rep)) expected.push_back(rep);
  }
  ASSERT_GT(expected.size(), 0u);
  EXPECT_EQ(index.failed_rep_record_ids(), expected);
  EXPECT_EQ(index.num_failed_representatives(), expected.size());
  EXPECT_LT(index.num_failed_representatives(), index.num_representatives());

  // The stats report names the degradation.
  core::IndexStats stats = core::ComputeIndexStats(index);
  EXPECT_EQ(stats.num_failed_representatives, expected.size());
  EXPECT_NE(stats.ToString().find("degraded"), std::string::npos);

  // Propagation excludes failed representatives but still scores every
  // record from the valid ones.
  core::CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> proxy = core::ComputeProxyScores(
      index, scorer, core::PropagationMode::kNumeric);
  ASSERT_EQ(proxy.size(), ds.size());
  for (double score : proxy) {
    EXPECT_TRUE(std::isfinite(score));
  }
}

TEST(DegradedBuildTest, RepairRestoresRepresentatives) {
  data::Dataset ds = SmallDataset();
  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.permanent_rate = 0.05;
  sched.seed = 11;
  labeler::FaultInjectingLabeler inj(&sim, sched);
  labeler::ResilientLabeler oracle(&inj, {});
  core::TastiIndex index =
      core::TastiIndex::Build(ds, &oracle, FastIndexOptions());
  const size_t failed_before = index.num_failed_representatives();
  ASSERT_GT(failed_before, 0u);

  // The oracle heals; late annotations restore the failed reps.
  inj.set_schedule(labeler::FaultSchedule{});
  const std::vector<size_t> positions = index.failed_representative_positions();
  const std::vector<size_t> records = index.failed_rep_record_ids();
  for (size_t i = 0; i < positions.size(); ++i) {
    Result<data::LabelerOutput> label = oracle.TryLabel(records[i]);
    ASSERT_TRUE(label.ok());
    index.RepairRepresentative(positions[i], *std::move(label));
  }
  EXPECT_EQ(index.num_failed_representatives(), 0u);
  EXPECT_TRUE(index.failed_rep_record_ids().empty());
}

// ---------- Degraded queries ----------

class DegradedQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new data::Dataset(SmallDataset());
    labeler::SimulatedLabeler clean_labeler(ds_);
    labeler::FallibleAdapter clean(&clean_labeler);
    index_ = new core::TastiIndex(
        core::TastiIndex::Build(*ds_, &clean, FastIndexOptions()));
  }
  static void TearDownTestSuite() {
    delete index_;
    delete ds_;
  }

  static data::Dataset* ds_;
  static core::TastiIndex* index_;
};

data::Dataset* DegradedQueryTest::ds_ = nullptr;
core::TastiIndex* DegradedQueryTest::index_ = nullptr;

TEST_F(DegradedQueryTest, AllQueriesReturnStatusUnderTotalOutage) {
  core::CountScorer statistic(data::ObjectClass::kCar);
  core::PresenceScorer predicate(data::ObjectClass::kCar);
  const std::vector<double> proxy = core::ComputeProxyScores(
      *index_, statistic, core::PropagationMode::kNumeric);
  const std::vector<double> pred_proxy = core::ComputeProxyScores(
      *index_, predicate, core::PropagationMode::kNumeric);

  labeler::SimulatedLabeler sim(ds_);
  labeler::FaultSchedule sched;
  sched.transient_rate = 1.0;
  labeler::FaultInjectingLabeler oracle(&sim, sched);

  queries::AggregationOptions agg;
  agg.error_target = 0.1;
  Result<queries::AggregationResult> r1 =
      queries::TryEstimateMean(proxy, &oracle, statistic, agg);
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kUnavailable);

  queries::SupgOptions sr;
  sr.recall_target = 0.9;
  sr.budget = 300;
  Result<queries::SupgResult> r2 =
      queries::TrySupgRecallSelect(pred_proxy, &oracle, predicate, sr);
  EXPECT_FALSE(r2.ok());

  queries::SupgPrecisionOptions sp;
  sp.precision_target = 0.9;
  sp.budget = 300;
  Result<queries::SupgResult> r3 =
      queries::TrySupgPrecisionSelect(pred_proxy, &oracle, predicate, sp);
  EXPECT_FALSE(r3.ok());

  queries::LimitOptions lim;
  lim.want = 5;
  Result<queries::LimitResult> r4 =
      queries::TryLimitQuery(pred_proxy, &oracle, predicate, lim);
  EXPECT_FALSE(r4.ok());

  queries::ThresholdSelectOptions ts;
  ts.validation_budget = 100;
  Result<queries::ThresholdSelectResult> r5 =
      queries::TryThresholdSelect(pred_proxy, &oracle, predicate, ts);
  EXPECT_FALSE(r5.ok());

  queries::PredicateAggregationOptions pa;
  pa.error_target = 0.2;
  Result<queries::PredicateAggregationResult> r6 =
      queries::TryEstimateMeanWithPredicate(pred_proxy, &oracle, predicate,
                                            statistic, pa);
  EXPECT_FALSE(r6.ok());
}

TEST_F(DegradedQueryTest, AggregationSubstitutesProxyForFailedSamples) {
  core::CountScorer statistic(data::ObjectClass::kCar);
  const std::vector<double> proxy = core::ComputeProxyScores(
      *index_, statistic, core::PropagationMode::kNumeric);

  labeler::SimulatedLabeler sim(ds_);
  labeler::FaultSchedule sched;
  sched.transient_rate = 0.3;
  sched.seed = 31;
  labeler::FaultInjectingLabeler oracle(&sim, sched);

  queries::AggregationOptions agg;
  agg.error_target = 0.15;
  agg.seed = 8;
  Result<queries::AggregationResult> r =
      queries::TryEstimateMean(proxy, &oracle, statistic, agg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->failed_oracle_calls, 0u);
  EXPECT_EQ(r->substituted_samples, r->failed_oracle_calls);
  EXPECT_TRUE(std::isfinite(r->estimate));
  EXPECT_GT(r->estimate, 0.0);
}

TEST_F(DegradedQueryTest, SupgReportsAchievedVersusRequestedSamples) {
  core::PresenceScorer predicate(data::ObjectClass::kCar);
  const std::vector<double> proxy = core::ComputeProxyScores(
      *index_, predicate, core::PropagationMode::kNumeric);

  labeler::SimulatedLabeler sim(ds_);
  labeler::FaultSchedule sched;
  sched.transient_rate = 0.3;
  sched.seed = 19;
  labeler::FaultInjectingLabeler oracle(&sim, sched);

  queries::SupgOptions opts;
  opts.recall_target = 0.9;
  opts.budget = 400;
  Result<queries::SupgResult> r =
      queries::TrySupgRecallSelect(proxy, &oracle, predicate, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->failed_oracle_calls, 0u);
  EXPECT_EQ(r->requested_samples, 400u);
  EXPECT_EQ(r->achieved_samples + r->failed_oracle_calls, 400u);
  // Budget is consumed by attempts, not successes.
  EXPECT_EQ(r->labeler_invocations, 400u);
}

// ---------- Session: chaos attribution and self-healing ----------

TEST(SessionChaosTest, AttributionInvariantHoldsUnderFaults) {
  data::Dataset ds = SmallDataset();
  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.transient_rate = 0.1;
  sched.timeout_rate = 0.05;
  sched.seed = 29;
  labeler::FaultInjectingLabeler inj(&sim, sched);
  labeler::ResilientLabeler::Options ropts;
  ropts.retry.max_attempts = 10;
  ropts.breaker.enabled = false;
  labeler::ResilientLabeler oracle(&inj, ropts);

  api::SessionOptions sopts;
  sopts.index = FastIndexOptions();
  api::TastiSession session(&ds, &oracle, sopts);

  core::CountScorer statistic(data::ObjectClass::kCar);
  core::PresenceScorer predicate(data::ObjectClass::kCar);
  session.Aggregate(statistic, 0.15);
  EXPECT_TRUE(session.last_query_status().ok());
  session.SelectWithRecall(predicate, 0.9, 300);
  EXPECT_TRUE(session.last_query_status().ok());
  session.Limit(predicate, 5);
  EXPECT_TRUE(session.last_query_status().ok());

  // Every attempt — including retries of failed calls and rep repairs —
  // is attributed to the build or to exactly one query.
  EXPECT_EQ(session.query_log().total_invocations(), oracle.invocations());
  EXPECT_EQ(session.total_labeler_invocations(), oracle.invocations());
}

TEST(SessionChaosTest, QueriesRepairFailedRepresentatives) {
  data::Dataset ds = SmallDataset();
  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.permanent_rate = 0.05;
  sched.seed = 11;
  labeler::FaultInjectingLabeler inj(&sim, sched);
  labeler::ResilientLabeler oracle(&inj, {});

  api::SessionOptions sopts;
  sopts.index = FastIndexOptions();
  api::TastiSession session(&ds, &oracle, sopts);

  const size_t failed_after_build =
      session.index().num_failed_representatives();
  ASSERT_GT(failed_after_build, 0u);

  // The oracle heals; the next queries re-annotate failed reps.
  inj.set_schedule(labeler::FaultSchedule{});
  core::CountScorer statistic(data::ObjectClass::kCar);
  session.Aggregate(statistic, 0.2);
  EXPECT_EQ(session.representatives_repaired(),
            std::min(serve::kMaxRepRepairsPerQuery, failed_after_build));
  EXPECT_EQ(session.index().num_failed_representatives(),
            failed_after_build - session.representatives_repaired());
  EXPECT_EQ(session.query_log().queries().back().repaired_representatives,
            session.representatives_repaired());

  // Repairs continue across queries until the index is whole.
  while (session.index().num_failed_representatives() > 0) {
    session.Aggregate(statistic, 0.2);
  }
  EXPECT_EQ(session.representatives_repaired(), failed_after_build);
}

TEST(SessionChaosTest, TotalOutageQuerySurfacesStatusNotAbort) {
  data::Dataset ds = SmallDataset();
  labeler::ResilientLabeler::Options ropts;
  ropts.retry.max_attempts = 2;
  ropts.breaker.enabled = false;
  api::SessionOptions sopts;
  sopts.index = FastIndexOptions();
  core::CountScorer statistic(data::ObjectClass::kCar);
  labeler::FaultSchedule outage;
  outage.transient_rate = 1.0;

  {
    SCOPED_TRACE("outage after a healthy build");
    labeler::SimulatedLabeler sim(&ds);
    labeler::FaultInjectingLabeler inj(&sim, labeler::FaultSchedule{});
    labeler::ResilientLabeler oracle(&inj, ropts);
    api::TastiSession session(&ds, &oracle, sopts);
    session.index();  // build fault-free
    inj.set_schedule(outage);

    // The labels the build paid for are free from the server-wide label
    // cache, so the query answers from those, status OK, and reports the
    // calls that failed.
    queries::AggregationResult r = session.Aggregate(statistic, 0.1);
    EXPECT_TRUE(session.last_query_status().ok());
    EXPECT_GT(r.labeler_invocations, 0u);
    EXPECT_GT(r.failed_oracle_calls, 0u);
    EXPECT_EQ(session.query_log().queries().back().failed_oracle_calls,
              r.failed_oracle_calls);
  }
  {
    SCOPED_TRACE("oracle dead from the start");
    labeler::SimulatedLabeler sim(&ds);
    labeler::FaultInjectingLabeler inj(&sim, outage);
    labeler::ResilientLabeler oracle(&inj, ropts);
    api::TastiSession session(&ds, &oracle, sopts);
    // The build degrades instead of aborting: every representative failed.
    EXPECT_EQ(session.index().num_failed_representatives(),
              session.index().num_representatives());

    queries::AggregationResult r = session.Aggregate(statistic, 0.1);
    EXPECT_FALSE(session.last_query_status().ok());
    EXPECT_EQ(session.last_query_status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(r.labeler_invocations, 0u);  // default result
    EXPECT_GT(r.failed_oracle_calls, 0u);
  }
}

// ---------- On-disk integrity ----------

TEST(IntegrityTest, TruncatedIndexFileIsRejected) {
  data::Dataset ds = SmallDataset(500);
  core::IndexOptions opts = FastIndexOptions();
  opts.num_training_records = 100;
  opts.num_representatives = 50;
  labeler::SimulatedLabeler clean_labeler(&ds);
  labeler::FallibleAdapter clean(&clean_labeler);
  core::TastiIndex index = core::TastiIndex::Build(ds, &clean, opts);

  Result<std::string> buffer = core::IndexSerializer::SerializeToString(index);
  ASSERT_TRUE(buffer.ok());

  // Round-trips intact.
  EXPECT_TRUE(core::IndexSerializer::DeserializeFromString(*buffer).ok());

  // Truncation at any of several points is caught by the footer, not UB.
  for (size_t keep : {size_t{0}, size_t{10}, buffer->size() / 2,
                      buffer->size() - 1}) {
    Result<core::TastiIndex> r = core::IndexSerializer::DeserializeFromString(
        buffer->substr(0, keep));
    EXPECT_FALSE(r.ok()) << "kept " << keep << " bytes";
  }

  // Trailing garbage is caught too.
  EXPECT_FALSE(
      core::IndexSerializer::DeserializeFromString(*buffer + "x").ok());
}

TEST(IntegrityTest, BitFlipIsDetectedAsDataLoss) {
  data::Dataset ds = SmallDataset(500);
  core::IndexOptions opts = FastIndexOptions();
  opts.num_training_records = 100;
  opts.num_representatives = 50;
  labeler::SimulatedLabeler clean_labeler(&ds);
  labeler::FallibleAdapter clean(&clean_labeler);
  core::TastiIndex index = core::TastiIndex::Build(ds, &clean, opts);

  Result<std::string> buffer = core::IndexSerializer::SerializeToString(index);
  ASSERT_TRUE(buffer.ok());
  std::string corrupted = *buffer;
  corrupted[corrupted.size() / 3] ^= 0x20;
  Result<core::TastiIndex> r =
      core::IndexSerializer::DeserializeFromString(corrupted);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST(IntegrityTest, TruncatedModelBufferIsRejected) {
  Rng rng(50);
  nn::Mlp mlp = nn::Mlp::MakeEmbeddingNet(4, 8, 2, &rng);
  Result<std::string> buffer = nn::SerializeMlp(mlp);
  ASSERT_TRUE(buffer.ok());
  EXPECT_TRUE(nn::DeserializeMlp(*buffer).ok());
  EXPECT_FALSE(nn::DeserializeMlp(buffer->substr(0, buffer->size() / 2)).ok());
  std::string corrupted = *buffer;
  corrupted[8] ^= 0x01;
  EXPECT_FALSE(nn::DeserializeMlp(corrupted).ok());
}

}  // namespace
}  // namespace tasti
