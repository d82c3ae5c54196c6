// Unit tests for obs/: trace recorder + spans, live telemetry,
// query log, and the per-query attribution invariant end-to-end through a
// TastiSession. The concurrency tests double as the sanitizer workload:
// tools/check.sh runs this binary under ASan and TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/live.h"

#include "api/session.h"
#include "core/scorer.h"
#include "data/dataset.h"
#include "eval/reporting.h"
#include "labeler/cost_model.h"
#include "labeler/labeler.h"
#include "obs/config.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "util/json.h"

namespace tasti {
namespace {

/// Saves and restores the global observability flags, so tests can flip
/// them without leaking state into other tests in the same process.
class ObsFlagsGuard {
 public:
  ObsFlagsGuard()
      : tracing_(obs::TracingEnabled()),
        flight_(obs::FlightRecordingEnabled()) {}
  ~ObsFlagsGuard() {
    obs::SetTracingEnabled(tracing_);
    obs::SetFlightRecordingEnabled(flight_);
  }

 private:
  bool tracing_;
  bool flight_;
};

// ---------- Spans / TraceRecorder ----------

TEST(TraceTest, DisabledSpansLeaveZeroEvents) {
  ObsFlagsGuard guard;
  obs::SetTracingEnabled(false);
  const size_t before = obs::TraceRecorder::Global().event_count();
  {
    TASTI_SPAN("obs_test.disabled.outer");
    TASTI_SPAN("obs_test.disabled.inner");
  }
  EXPECT_EQ(obs::TraceRecorder::Global().event_count(), before);
}

TEST(TraceTest, EnabledSpansRecordToTheGlobalRecorder) {
  ObsFlagsGuard guard;
  obs::SetTracingEnabled(true);
  const size_t before = obs::TraceRecorder::Global().event_count();
  { TASTI_SPAN("obs_test.enabled"); }
  obs::SetTracingEnabled(false);
  EXPECT_EQ(obs::TraceRecorder::Global().event_count(), before + 1);
}

TEST(TraceTest, SpanStraddlingDisableStillCompletes) {
  // The flag is checked at construction only: a span opened while tracing
  // is on records its event even if tracing is switched off mid-span, so
  // the export never contains half-recorded state.
  ObsFlagsGuard guard;
  obs::SetTracingEnabled(true);
  const size_t before = obs::TraceRecorder::Global().event_count();
  {
    TASTI_SPAN("obs_test.straddle");
    obs::SetTracingEnabled(false);
  }
  EXPECT_EQ(obs::TraceRecorder::Global().event_count(), before + 1);
}

TEST(TraceTest, LocalRecorderCapturesNestedSpans) {
  obs::TraceRecorder recorder;
  {
    obs::Span outer(&recorder, "outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    { obs::Span inner(&recorder, "inner"); }
  }
  const std::vector<obs::TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Snapshot is ordered by start time: outer first.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[0].tid, events[1].tid);
  // Proper containment.
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_GE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us);
  EXPECT_GE(events[0].dur_us, 2000);
}

TEST(TraceTest, ClearDropsEventsAndResetsEpoch) {
  obs::TraceRecorder recorder;
  { obs::Span span(&recorder, "before_clear"); }
  EXPECT_EQ(recorder.event_count(), 1u);
  recorder.Clear();
  EXPECT_EQ(recorder.event_count(), 0u);
  { obs::Span span(&recorder, "after_clear"); }
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "after_clear");
}

TEST(TraceTest, CrossThreadSpansGetDistinctTidsAndWellFormedJson) {
  obs::TraceRecorder recorder;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder] {
      obs::Span outer(&recorder, "thread.outer");
      for (int i = 0; i < 3; ++i) {
        obs::Span inner(&recorder, "thread.inner");
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Every thread got its own tid, and inner spans nest inside their
  // thread's outer span.
  const std::vector<obs::TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads * 4));
  std::map<uint32_t, obs::TraceEvent> outers;
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) == "thread.outer") {
      EXPECT_EQ(outers.count(e.tid), 0u) << "duplicate outer on one tid";
      outers[e.tid] = e;
    }
  }
  EXPECT_EQ(outers.size(), static_cast<size_t>(kThreads));
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) != "thread.inner") continue;
    ASSERT_EQ(outers.count(e.tid), 1u);
    const obs::TraceEvent& outer = outers[e.tid];
    EXPECT_GE(e.ts_us, outer.ts_us);
    EXPECT_LE(e.ts_us + e.dur_us, outer.ts_us + outer.dur_us);
  }

  // The export parses as Chrome trace JSON with complete events only.
  const Result<json::Value> doc = json::Value::Parse(recorder.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value* trace_events = doc->Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());
  ASSERT_EQ(trace_events->AsArray().size(), events.size());
  for (const json::Value& event : trace_events->AsArray()) {
    ASSERT_TRUE(event.is_object());
    EXPECT_EQ(event.GetStringOr("ph", ""), "X");
    EXPECT_FALSE(event.GetStringOr("name", "").empty());
    for (const char* field : {"ts", "dur", "pid", "tid"}) {
      const json::Value* v = event.Find(field);
      ASSERT_NE(v, nullptr) << field;
      EXPECT_TRUE(v->is_number()) << field;
    }
    EXPECT_GE(event.GetNumberOr("dur", -1.0), 0.0);
  }
}

// ---------- QueryLog ----------

TEST(QueryLogTest, PricesQueriesWithTheCostModel) {
  obs::QueryLog log;
  obs::QueryRecord record;
  record.query_type = "aggregate";
  record.labeler_invocations = 300;
  record.phases.algorithm_seconds = 0.25;
  record.phases.oracle_seconds = 0.75;
  log.AddQuery(record);

  ASSERT_EQ(log.queries().size(), 1u);
  const obs::QueryRecord& stored = log.queries()[0];
  const labeler::CostModel& model = log.cost_model();
  EXPECT_DOUBLE_EQ(stored.human_dollars, 300 * model.human_dollars_per_label);
  EXPECT_DOUBLE_EQ(stored.mask_rcnn_seconds,
                   300 * model.mask_rcnn_seconds_per_label);
  EXPECT_DOUBLE_EQ(stored.ssd_seconds, 300 * model.ssd_seconds_per_label);
  EXPECT_DOUBLE_EQ(log.total_query_seconds(), 1.0);
}

TEST(QueryLogTest, TotalsCombineIndexAndQueries) {
  obs::QueryLog log;
  log.RecordIndexBuild(1000, 12.5);
  obs::QueryRecord a;
  a.labeler_invocations = 40;
  obs::QueryRecord b;
  b.labeler_invocations = 60;
  log.AddQuery(a);
  log.AddQuery(b);
  EXPECT_EQ(log.index_invocations(), 1000u);
  EXPECT_DOUBLE_EQ(log.index_build_seconds(), 12.5);
  EXPECT_EQ(log.total_invocations(), 1100u);
  log.Clear();
  EXPECT_EQ(log.total_invocations(), 0u);
  EXPECT_TRUE(log.queries().empty());
}

// The printed latency quantiles are order statistics of the per-query
// totals, not the edges of histogram buckets they fall in.
TEST(QueryLogTest, PrintedLatencyQuantilesAreExact) {
  obs::QueryLog log;
  for (double ms : {50.0, 10.0, 40.0, 20.0, 30.0}) {
    obs::QueryRecord record;
    record.phases.algorithm_seconds = ms / 2000.0;
    record.phases.oracle_seconds = ms / 2000.0;
    log.AddQuery(record);
  }
  ::testing::internal::CaptureStdout();
  eval::PrintQueryLog(log);
  const std::string printed = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(printed.find("latency:  p50=30.00ms p95=48.00ms p99=49.60ms"),
            std::string::npos)
      << printed;
}

TEST(QueryLogTest, JsonExportRoundTrips) {
  obs::QueryLog log;
  log.RecordIndexBuild(500, 3.0);
  obs::QueryRecord record;
  record.query_type = "supg_recall";
  record.params = "recall=0.9 budget=500";
  record.labeler_invocations = 500;
  record.cracked_representatives = 480;
  record.phases.rep_score_seconds = 0.1;
  record.phases.propagation_seconds = 0.2;
  log.AddQuery(record);

  const Result<json::Value> doc = json::Value::Parse(log.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value* index = doc->Find("index");
  ASSERT_NE(index, nullptr);
  EXPECT_DOUBLE_EQ(index->GetNumberOr("labeler_invocations", 0.0), 500.0);
  const json::Value* queries = doc->Find("queries");
  ASSERT_NE(queries, nullptr);
  ASSERT_TRUE(queries->is_array());
  ASSERT_EQ(queries->AsArray().size(), 1u);
  const json::Value& q = queries->AsArray()[0];
  EXPECT_EQ(q.GetStringOr("query_type", ""), "supg_recall");
  EXPECT_DOUBLE_EQ(q.GetNumberOr("labeler_invocations", 0.0), 500.0);
  const json::Value* phases = q.Find("phase_seconds");
  ASSERT_NE(phases, nullptr);
  EXPECT_NEAR(phases->GetNumberOr("total", 0.0), 0.3, 1e-6);
  const json::Value* totals = doc->Find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_DOUBLE_EQ(totals->GetNumberOr("labeler_invocations", 0.0), 1000.0);
}

// ---------- SpanTotals ----------

void SpanFor(const char* name, std::chrono::microseconds work) {
  obs::Span span(name);
  std::this_thread::sleep_for(work);
}

TEST(SpanTotalsTest, FillsWithEverySinkOff) {
  ObsFlagsGuard guard;
  obs::DisableAll();
  const size_t events = obs::TraceRecorder::Global().event_count();
  obs::SpanTotals spans;
  SpanFor("obs_test.totals.work", std::chrono::milliseconds(5));
  SpanFor("obs_test.totals.work", std::chrono::milliseconds(5));
  // Keyed by name, not by the literal's address.
  const std::string name = "obs_test.totals.work";
  EXPECT_GE(spans.Seconds(name.c_str()), 0.009);
  EXPECT_EQ(spans.Nanos("obs_test.totals.absent"), 0);
  EXPECT_EQ(obs::TraceRecorder::Global().event_count(), events);
}

TEST(SpanTotalsTest, NestedScopeHidesTheOuterUntilItCloses) {
  const std::chrono::microseconds work(200);
  obs::SpanTotals outer;
  SpanFor("obs_test.totals.before", work);
  {
    obs::SpanTotals inner;
    SpanFor("obs_test.totals.inner", work);
    EXPECT_GT(inner.Nanos("obs_test.totals.inner"), 0);
    EXPECT_EQ(inner.Nanos("obs_test.totals.before"), 0);
  }
  SpanFor("obs_test.totals.after", work);
  EXPECT_GT(outer.Nanos("obs_test.totals.before"), 0);
  EXPECT_EQ(outer.Nanos("obs_test.totals.inner"), 0);
  EXPECT_GT(outer.Nanos("obs_test.totals.after"), 0);
}

TEST(SpanTotalsTest, SpansOnAnotherThreadAreNotCounted) {
  const std::chrono::microseconds work(200);
  obs::SpanTotals spans;
  std::thread([work] { SpanFor("obs_test.totals.other", work); }).join();
  SpanFor("obs_test.totals.mine", work);
  EXPECT_EQ(spans.Nanos("obs_test.totals.other"), 0);
  EXPECT_GT(spans.Nanos("obs_test.totals.mine"), 0);
}

// ---------- Query phases from spans ----------

constexpr double kSlowCallSeconds = 0.010;

/// Ground-truth oracle that, once slowed, burns kSlowCallSeconds per call:
/// indexes build fast, queries then pay a known oracle time. Thread-safe.
class SlowOracle : public labeler::FallibleLabeler {
 public:
  explicit SlowOracle(const data::Dataset* dataset) : dataset_(dataset) {}
  void SlowDown() { slow_.store(true, std::memory_order_relaxed); }
  Result<data::LabelerOutput> TryLabel(size_t index) override {
    invocations_.fetch_add(1, std::memory_order_relaxed);
    if (slow_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(kSlowCallSeconds));
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
  std::atomic<bool> slow_{false};
  std::atomic<size_t> invocations_{0};
};

data::Dataset PhaseTestDataset() {
  data::DatasetOptions options;
  options.num_records = 1000;
  options.seed = 5;
  return data::MakeNightStreet(options);
}

core::IndexOptions PhaseTestIndexOptions() {
  core::IndexOptions options;
  options.num_training_records = 100;
  options.num_representatives = 100;
  return options;
}

/// Checks one query's phases against what its slowed oracle must cost.
/// The first query computed its proxy; every query here cracks.
void ExpectPhasesFromSpans(const std::vector<obs::QueryRecord>& queries) {
  ASSERT_EQ(queries.size(), 2u);
  for (const obs::QueryRecord& query : queries) {
    SCOPED_TRACE(query.query_type);
    const obs::QueryPhaseTimes& phases = query.phases;
    ASSERT_GT(query.labeler_invocations, 0u);
    EXPECT_GE(phases.oracle_seconds,
              0.8 * static_cast<double>(query.labeler_invocations) *
                  kSlowCallSeconds);
    EXPECT_LT(phases.algorithm_seconds, phases.oracle_seconds);
    EXPECT_GE(phases.algorithm_seconds, 0.0);
    ASSERT_GT(query.cracked_representatives, 0u);
    EXPECT_GT(phases.crack_seconds, 0.0);
  }
  EXPECT_GT(queries[0].phases.rep_score_seconds +
                queries[0].phases.propagation_seconds,
            0.0);
}

TEST(QueryPhaseTest, SessionPhasesComeFromSpans) {
  data::Dataset video = PhaseTestDataset();
  SlowOracle oracle(&video);
  api::SessionOptions options;
  options.index = PhaseTestIndexOptions();
  api::TastiSession session(&video, &oracle, options);
  session.index();  // build with the fast oracle
  oracle.SlowDown();

  core::PresenceScorer has_car(data::ObjectClass::kCar);
  session.SelectWithRecall(has_car, 0.9, 30);
  session.SelectWithPrecision(has_car, 0.9, 20);
  ExpectPhasesFromSpans(session.query_log().queries());
}

TEST(QueryPhaseTest, SessionLazyBuildStaysOutOfTheFirstQuery) {
  ObsFlagsGuard guard;
  obs::TraceRecorder::Global().Clear();
  obs::SetTracingEnabled(true);
  data::Dataset video = PhaseTestDataset();
  SlowOracle oracle(&video);
  oracle.SlowDown();  // the build's labels are slow too
  api::SessionOptions options;
  options.index.num_training_records = 30;
  options.index.num_representatives = 30;
  options.auto_crack = false;
  api::TastiSession session(&video, &oracle, options);

  core::PresenceScorer has_car(data::ObjectClass::kCar);
  session.SelectWithRecall(has_car, 0.9, 10);  // builds the index first
  obs::SetTracingEnabled(false);

  const obs::QueryLog& log = session.query_log();
  ASSERT_EQ(log.queries().size(), 1u);
  const obs::QueryRecord& query = log.queries()[0];
  ASSERT_GT(query.labeler_invocations, 0u);
  ASSERT_GE(log.index_invocations(), 2 * query.labeler_invocations);
  const double query_calls = static_cast<double>(query.labeler_invocations);
  const double build_calls = static_cast<double>(log.index_invocations());
  EXPECT_GE(query.phases.oracle_seconds, 0.8 * query_calls * kSlowCallSeconds);
  // Counting the build's labels would add at least build_calls slow calls.
  EXPECT_LT(query.phases.oracle_seconds,
            (query_calls + 0.5 * build_calls) * kSlowCallSeconds);

  // In the trace the build (the session's server start) is a top-level
  // span that ends before the first query's span opens, not a child of it.
  const obs::TraceEvent* build = nullptr;
  const obs::TraceEvent* select = nullptr;
  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::Global().Snapshot();
  for (const obs::TraceEvent& event : events) {
    if (std::strcmp(event.name, "serve.start") == 0) build = &event;
    if (std::strcmp(event.name, "serve.query") == 0) select = &event;
  }
  ASSERT_NE(build, nullptr);
  ASSERT_NE(select, nullptr);
  EXPECT_GE(select->ts_us, build->ts_us + build->dur_us);
}

TEST(QueryPhaseTest, ServedPhasesComeFromSpans) {
  data::Dataset video = PhaseTestDataset();
  SlowOracle oracle(&video);
  serve::ServerOptions options;
  options.index = PhaseTestIndexOptions();
  options.num_workers = 1;
  serve::TastiServer server(&video, &oracle, options);
  ASSERT_TRUE(server.Start().ok());
  oracle.SlowDown();

  core::PresenceScorer has_car(data::ObjectClass::kCar);
  serve::QuerySpec spec;
  spec.scorer = &has_car;
  spec.kind = serve::QueryKind::kSupgRecall;
  spec.target = 0.9;
  spec.budget = 30;
  ASSERT_TRUE(server.Execute(spec).status.ok());
  spec.kind = serve::QueryKind::kSupgPrecision;
  spec.budget = 20;
  ASSERT_TRUE(server.Execute(spec).status.ok());
  server.Drain();
  ExpectPhasesFromSpans(server.query_log().queries());
}

// ---------- End-to-end attribution through a session ----------

TEST(SessionAttributionTest, LedgerMatchesTheOracleCounter) {
  data::DatasetOptions dataset_options;
  dataset_options.num_records = 2000;
  dataset_options.seed = 5;
  data::Dataset video = data::MakeNightStreet(dataset_options);
  labeler::SimulatedLabeler simulated(&video);
  labeler::FallibleAdapter oracle(&simulated);

  api::SessionOptions options;
  options.index.num_training_records = 100;
  options.index.num_representatives = 200;
  api::TastiSession session(&video, &oracle, options);

  core::CountScorer cars(data::ObjectClass::kCar);
  core::PresenceScorer has_car(data::ObjectClass::kCar);
  core::AtLeastCountScorer busy(data::ObjectClass::kCar, 2);

  const queries::AggregationResult agg = session.Aggregate(cars, 0.1);
  const queries::SupgResult sel = session.SelectWithRecall(has_car, 0.9, 150);
  const queries::LimitResult lim = session.Limit(busy, 5);

  const obs::QueryLog& log = session.query_log();
  ASSERT_EQ(log.queries().size(), 3u);
  EXPECT_EQ(log.queries()[0].query_type, "aggregate");
  EXPECT_EQ(log.queries()[1].query_type, "supg_recall");
  EXPECT_EQ(log.queries()[2].query_type, "limit");

  // The invariant the whole ledger exists for: index charge plus per-query
  // charges equals the oracle's own counter, with nothing lost or
  // double-counted.
  EXPECT_EQ(log.total_invocations(), oracle.invocations());
  EXPECT_EQ(log.index_invocations(), session.index_invocations());
  EXPECT_EQ(log.total_invocations(), session.total_labeler_invocations());

  // Every query asked for labels; a row is charged only the calls it paid
  // (a label the build or an earlier query paid for is free from the
  // server-wide cache), priced by the cost model, and its phase clocks
  // moved. The first query had only the build's labels to reuse.
  EXPECT_GT(agg.labeler_invocations, 0u);
  EXPECT_GT(sel.labeler_invocations, 0u);
  EXPECT_GT(lim.labeler_invocations, 0u);
  EXPECT_GT(log.queries()[0].labeler_invocations, 0u);
  for (const obs::QueryRecord& query : log.queries()) {
    EXPECT_GE(query.phases.TotalSeconds(), 0.0) << query.query_type;
    EXPECT_EQ(query.human_dollars,
              log.cost_model().LabelCost(labeler::LabelerKind::kHuman,
                                         query.labeler_invocations))
        << query.query_type;
  }
  EXPECT_GT(log.queries()[0].human_dollars, 0.0);
  // The first query built the index and paid proxy scoring for it.
  EXPECT_GT(log.index_invocations(), 0u);
  EXPECT_GT(log.index_build_seconds(), 0.0);
  const obs::QueryPhaseTimes& first = log.queries()[0].phases;
  EXPECT_GT(first.rep_score_seconds + first.propagation_seconds, 0.0);
}

// ---------- Bucketed quantiles ----------

TEST(QuantileTest, InterpolatesWithinBuckets) {
  // Bounds 10 / 20 / 40 with 10 observations spread 4/4/2: p50 falls at
  // rank 5, one observation into the second bucket -> 10 + (1/4)*10.
  const std::vector<double> bounds{10.0, 20.0, 40.0};
  const uint64_t buckets[] = {4, 4, 2, 0};
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(bounds, buckets, 10, 0.5), 12.5);
  // p100 = top of the last occupied bucket; p0 = bottom of the first.
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(bounds, buckets, 10, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(bounds, buckets, 10, 0.0), 0.0);
}

TEST(QuantileTest, EmptyAndOverflowBehave) {
  const std::vector<double> bounds{1.0, 2.0};
  const uint64_t empty[] = {0, 0, 0};
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(bounds, empty, 0, 0.5), 0.0);
  // One observation in the +inf bucket: it clamps to the last finite
  // bound instead of inventing a value beyond the sketch's range.
  const uint64_t overflow[] = {0, 0, 1};
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(bounds, overflow, 1, 0.99), 2.0);
}

TEST(QuantileTest, ExponentialBucketsGrowGeometrically) {
  const std::vector<double> bounds = obs::ExponentialBuckets(1.0, 2.0, 5);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[4], 16.0);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
}

// ---------- Sliding-window quantile sketch ----------

TEST(SlidingSketchTest, MergesSlotsInsideTheWindow) {
  obs::SlidingQuantileSketch sketch({1.0, 10.0, 100.0}, 10.0, 3);  // 30s
  sketch.Observe(5.0, 100.0);
  sketch.Observe(5.0, 111.0);
  sketch.Observe(50.0, 122.0);
  const obs::WindowSnapshot snap = sketch.Snapshot(125.0);
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 60.0);
  EXPECT_GT(snap.Quantile(0.99), 10.0);
}

TEST(SlidingSketchTest, OldSlotsAgeOutOnRotation) {
  obs::SlidingQuantileSketch sketch({1.0, 10.0, 100.0}, 10.0, 3);
  sketch.Observe(50.0, 100.0);
  EXPECT_EQ(sketch.Snapshot(105.0).count, 1u);
  // 3 slots x 10s later the observation's slot is out of the window even
  // though its ring position has not been overwritten.
  EXPECT_EQ(sketch.Snapshot(131.0).count, 0u);
  // Writing a new observation reuses (and zeroes) the stale slot.
  sketch.Observe(2.0, 131.0);
  const obs::WindowSnapshot snap = sketch.Snapshot(131.0);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 2.0);
}

// ---------- SLO burn rates ----------

obs::SloConfig FastSloConfig() {
  obs::SloConfig config;
  config.latency_threshold_ms = 100.0;
  config.latency_target = 0.9;  // error budget 0.1
  config.fast_window_seconds = 60.0;
  config.slow_window_seconds = 600.0;
  config.burn_rate_threshold = 2.0;
  config.min_events = 5;
  config.alert_cooldown_seconds = 30.0;
  return config;
}

TEST(SloTrackerTest, AlertsWhenBothWindowsBurn) {
  obs::SloTracker slo(FastSloConfig());
  // All-bad traffic: burn = 1.0/0.1 = 10x in both windows.
  for (int i = 0; i < 6; ++i) {
    slo.RecordQuery(10.0 + i, /*latency_ms=*/500.0, /*ok=*/true, 0);
  }
  const obs::BurnRates burn =
      slo.Burn(obs::SloObjective::kLatency, 16.0);
  EXPECT_DOUBLE_EQ(burn.fast, 10.0);
  EXPECT_DOUBLE_EQ(burn.slow, 10.0);
  const std::vector<obs::Alert> alerts = slo.TakeAlerts();
  ASSERT_EQ(alerts.size(), 1u);  // cooldown suppresses repeats
  EXPECT_EQ(alerts[0].objective, obs::SloObjective::kLatency);
  EXPECT_GE(alerts[0].burn_fast, 2.0);
  EXPECT_TRUE(slo.TakeAlerts().empty());
  // After the cooldown the objective re-arms.
  slo.RecordQuery(50.0, 500.0, true, 0);
  EXPECT_EQ(slo.TakeAlerts().size(), 1u);
}

TEST(SloTrackerTest, MinEventsSuppressesStartupNoise) {
  obs::SloTracker slo(FastSloConfig());
  for (int i = 0; i < 4; ++i) slo.RecordQuery(10.0 + i, 500.0, true, 0);
  EXPECT_TRUE(slo.TakeAlerts().empty());  // only 4 < min_events in fast
}

TEST(SloTrackerTest, HealthyTrafficKeepsBurnNearZero) {
  obs::SloTracker slo(FastSloConfig());
  for (int i = 0; i < 100; ++i) slo.RecordQuery(10.0 + i * 0.1, 1.0, true, 0);
  EXPECT_DOUBLE_EQ(slo.Burn(obs::SloObjective::kLatency, 20.0).fast, 0.0);
  EXPECT_TRUE(slo.TakeAlerts().empty());
  EXPECT_EQ(slo.alerts_raised(), 0u);
}

TEST(SloTrackerTest, ErrorObjectiveTracksFailedQueries) {
  obs::SloTracker slo(FastSloConfig());
  for (int i = 0; i < 10; ++i) {
    slo.RecordQuery(10.0 + i, 1.0, /*ok=*/i % 2 == 0, 0);
  }
  const obs::BurnRates burn = slo.Burn(obs::SloObjective::kErrors, 20.0);
  EXPECT_GT(burn.fast, 100.0);  // 50% bad against a 0.1% budget
  EXPECT_EQ(burn.fast_events, 10u);
}

// ---------- Flight recorder ----------

TEST(FlightRecorderTest, RingOverwritesOldestBeyondCapacity) {
  obs::FlightRecorder recorder(/*capacity_per_thread=*/4);
  for (int i = 0; i < 10; ++i) {
    recorder.Record("flight_test.span", i * 10, 5);
  }
  EXPECT_EQ(recorder.event_count(), 4u);
  const std::vector<obs::TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The survivors are the newest four, in timestamp order.
  EXPECT_EQ(events.front().ts_us, 60);
  EXPECT_EQ(events.back().ts_us, 90);
}

TEST(FlightRecorderTest, SpansReachFlightSinkWhenTracingIsOff) {
  ObsFlagsGuard guard;
  obs::SetTracingEnabled(false);
  obs::SetFlightRecordingEnabled(true);
  obs::FlightRecorder& global = obs::FlightRecorder::Global();
  global.Clear();
  const size_t trace_before = obs::TraceRecorder::Global().event_count();
  { TASTI_SPAN("flight_test.only_flight"); }
  obs::SetFlightRecordingEnabled(false);
  EXPECT_EQ(global.event_count(), 1u);
  // The trace sink stayed dark: the flag bits are independent.
  EXPECT_EQ(obs::TraceRecorder::Global().event_count(), trace_before);
  global.Clear();
}

TEST(FlightRecorderTest, ChromeJsonUsesMatchedBeginEndPairs) {
  obs::FlightRecorder recorder(/*capacity_per_thread=*/64);
  // parent [0, 100] wrapping child [10, 30] on this thread.
  recorder.Record("flight_test.child", 10, 20);
  recorder.Record("flight_test.parent", 0, 100);
  const std::string json = recorder.ToChromeJson("unit_test");
  const Result<json::Value> doc = json::Value::Parse(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  size_t begins = 0;
  size_t ends = 0;
  bool instant = false;
  std::vector<std::string> stack;
  for (const json::Value& event : events->AsArray()) {
    const std::string ph = event.GetStringOr("ph", "");
    if (ph == "i") {
      instant = true;
      EXPECT_EQ(event.GetStringOr("name", ""), "flight.dump");
      const json::Value* args = event.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->GetStringOr("reason", ""), "unit_test");
    } else if (ph == "B") {
      ++begins;
      stack.push_back(event.GetStringOr("name", ""));
    } else if (ph == "E") {
      ++ends;
      ASSERT_FALSE(stack.empty());
      EXPECT_EQ(stack.back(), event.GetStringOr("name", ""));
      stack.pop_back();
    }
  }
  EXPECT_TRUE(instant);
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(ends, 2u);
  EXPECT_TRUE(stack.empty());
}

TEST(FlightRecorderTest, ConcurrentRecordsStayBoundedPerThread) {
  obs::FlightRecorder recorder(/*capacity_per_thread=*/32);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder] {
      for (int i = 0; i < 500; ++i) {
        recorder.Record("flight_test.concurrent", i, 1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(recorder.event_count(), 32u * kThreads);
}

// ---------- Prometheus exposition ----------

TEST(ExpositionTest, RendersRegistryAndLiveSamples) {
  obs::LiveStats live;
  live.Add("tasti_query_latency_ms", 12.5,
           {{"kind", "aggregate"}, {"quantile", "0.99"}}, 'g',
           "sliding-window latency quantiles");

  const std::string text = obs::WriteExposition(live);
  // Live samples carry their labels through.
  EXPECT_NE(
      text.find(
          "tasti_query_latency_ms{kind=\"aggregate\",quantile=\"0.99\"} "
          "12.5"),
      std::string::npos);
  // Every line is either a comment or "name{labels} value".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
  }
}

// Two monitors' samples merged into one LiveStats (one per shard)
// interleave their families; the exposition groups them back by family, in
// order of first appearance, and leaves already-grouped input as it is.
TEST(ExpositionTest, InterleavedLiveStatsAreGroupedByFamily) {
  auto shard_stats = [](const std::string& shard, double value) {
    obs::LiveStats live;
    live.Add("tasti_submitted_total", value, {{"shard", shard}}, 'c',
             "queries submitted");
    live.Add("tasti_depth", value / 2, {{"shard", shard}}, 'g', "depth");
    live.Add("tasti_burn", 1.0, {{"shard", shard}, {"window", "fast"}});
    live.Add("tasti_burn", 0.5, {{"shard", shard}, {"window", "slow"}});
    return live;
  };
  obs::LiveStats merged = shard_stats("0", 4.0);
  for (obs::LiveSample& sample : shard_stats("1", 6.0).samples) {
    merged.samples.push_back(std::move(sample));
  }
  const std::string text = obs::WriteExposition(merged);
  EXPECT_EQ(text,
            "# HELP tasti_submitted_total queries submitted\n"
            "# TYPE tasti_submitted_total counter\n"
            "tasti_submitted_total{shard=\"0\"} 4\n"
            "tasti_submitted_total{shard=\"1\"} 6\n"
            "# HELP tasti_depth depth\n"
            "# TYPE tasti_depth gauge\n"
            "tasti_depth{shard=\"0\"} 2\n"
            "tasti_depth{shard=\"1\"} 3\n"
            "# TYPE tasti_burn gauge\n"
            "tasti_burn{shard=\"0\",window=\"fast\"} 1\n"
            "tasti_burn{shard=\"0\",window=\"slow\"} 0.5\n"
            "tasti_burn{shard=\"1\",window=\"fast\"} 1\n"
            "tasti_burn{shard=\"1\",window=\"slow\"} 0.5\n");

  // Each family: exactly one TYPE line, and its samples in one run.
  std::vector<std::string> runs;  // family of each run of sample lines
  std::istringstream lines(text);
  std::string line;
  size_t type_lines = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) ++type_lines;
    if (line[0] == '#') continue;
    const std::string family = line.substr(0, line.find_first_of("{ "));
    if (runs.empty() || runs.back() != family) runs.push_back(family);
  }
  EXPECT_EQ(type_lines, 3u);
  EXPECT_EQ(runs, (std::vector<std::string>{"tasti_submitted_total",
                                            "tasti_depth", "tasti_burn"}));

  // Already grouped: the rendering keeps the input order byte for byte.
  obs::LiveStats grouped;
  for (size_t i : {0, 4, 1, 5, 2, 3, 6, 7}) {
    grouped.samples.push_back(merged.samples[i]);
  }
  EXPECT_EQ(obs::WriteExposition(grouped), text);
}

TEST(ExpositionTest, TypeLinesAreEmittedOncePerFamily) {
  obs::LiveStats live;
  live.Add("tasti_burn", 1.0, {{"window", "fast"}});
  live.Add("tasti_burn", 0.5, {{"window", "slow"}});
  const std::string text = obs::WriteExposition(live);
  size_t count = 0;
  size_t pos = 0;
  while ((pos = text.find("# TYPE tasti_burn gauge", pos)) !=
         std::string::npos) {
    ++count;
    pos += 1;
  }
  EXPECT_EQ(count, 1u);
}

}  // namespace
}  // namespace tasti
