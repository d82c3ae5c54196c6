#include "serve/monitor.h"

#include <algorithm>
#include <cstdio>

namespace tasti::serve {

namespace {

// Sliding-window geometry of every latency sketch: 30 slots of 10 s, so
// five minutes of history.
constexpr double kSlotSeconds = 10.0;
constexpr size_t kNumSlots = 30;

std::unique_ptr<obs::SlidingQuantileSketch> MakeLatencySketch() {
  // Bucket bounds in ms: 50 us .. ~26 s.
  return std::make_unique<obs::SlidingQuantileSketch>(
      obs::ExponentialBuckets(0.05, 2.0, 20), kSlotSeconds, kNumSlots);
}

}  // namespace

const char* ServerMonitor::PhaseName(size_t phase) {
  switch (phase) {
    case kPhaseProxy:
      return "proxy";
    case kPhaseAlgorithm:
      return "algorithm";
    case kPhaseOracle:
      return "oracle";
    case kPhaseCrack:
      return "crack";
  }
  return "unknown";
}

ServerMonitor::ServerMonitor(MonitorOptions options, const obs::Clock* clock)
    : options_(std::move(options)),
      owned_clock_(clock == nullptr ? std::make_unique<obs::SteadyClock>()
                                    : nullptr),
      clock_(clock == nullptr ? owned_clock_.get() : clock),
      slo_(options_.slo) {
  kind_sketches_.reserve(kNumKinds);
  for (size_t i = 0; i < kNumKinds; ++i) {
    kind_sketches_.push_back(MakeLatencySketch());
  }
  phase_sketches_.reserve(kNumPhases);
  for (size_t i = 0; i < kNumPhases; ++i) {
    phase_sketches_.push_back(MakeLatencySketch());
  }
}

void ServerMonitor::BindServer(const TastiServer* server) { server_ = server; }

void ServerMonitor::OnQueryComplete(const QueryResponse& response,
                                    const obs::QueryPhaseTimes& phases,
                                    size_t failed_oracle_calls) {
  const double now = clock_->NowSeconds();
  const double latency_ms =
      response.execute_seconds * 1000.0 + response.queue_wait_ms;

  kind_sketches_[static_cast<size_t>(response.kind)]->Observe(latency_ms, now);
  phase_sketches_[kPhaseProxy]->Observe(
      (phases.rep_score_seconds + phases.propagation_seconds) * 1000.0, now);
  phase_sketches_[kPhaseAlgorithm]->Observe(phases.algorithm_seconds * 1000.0,
                                            now);
  phase_sketches_[kPhaseOracle]->Observe(phases.oracle_seconds * 1000.0, now);
  phase_sketches_[kPhaseCrack]->Observe(phases.crack_seconds * 1000.0, now);

  if (!response.status.ok()) failed_.fetch_add(1, std::memory_order_relaxed);

  slo_.RecordQuery(now, latency_ms, response.status.ok(),
                   response.attributed_invocations);
  DrainSloAlerts(now);

  const double slow_threshold = options_.slo.latency_threshold_ms;
  if (latency_ms > slow_threshold || failed_oracle_calls > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failed_oracle_calls > 0) {
      auto it = std::find_if(
          fault_counts_.begin(), fault_counts_.end(),
          [](const auto& kv) { return kv.first == "oracle_failure"; });
      if (it == fault_counts_.end()) {
        fault_counts_.emplace_back("oracle_failure", failed_oracle_calls);
      } else {
        it->second += failed_oracle_calls;
      }
    }
    MaybeDumpLocked(latency_ms > slow_threshold ? "slow_query"
                                                : "oracle_failure",
                    now);
  }
}

void ServerMonitor::OnEpochPublish(const IndexSnapshot& snapshot) {
  const double now = clock_->NowSeconds();
  IndexHealth health;
  health.epoch = snapshot.epoch;
  health.num_records = snapshot.num_records;
  health.num_representatives = snapshot.rep_record_ids.size();
  health.degraded_representatives = snapshot.num_failed_representatives;

  {
    std::lock_guard<std::mutex> lock(mu_);
    health.baseline_records = health_.baseline_records == 0
                                  ? snapshot.num_records
                                  : health_.baseline_records;
    health.drift_ratio = health_.drift_ratio;
    health.drifted = health_.drifted;
  }

  // Appended records (beyond the baseline epoch's count) get a drift
  // check against the baseline range. Computed outside mu_ — O(records).
  const bool has_appended = snapshot.num_records > health.baseline_records &&
                            health.baseline_records > 0;
  if (has_appended) {
    const core::DriftReport report =
        core::DetectDrift(snapshot.topk, snapshot.num_records,
                          health.baseline_records,
                          options_.drift_ratio_threshold);
    health.drift_ratio = report.mean_ratio;
    health.drifted = report.drifted;
    slo_.RecordEvent(obs::SloObjective::kIndexDrift, report.drifted, now);
  }

  std::lock_guard<std::mutex> lock(mu_);
  health_ = health;
  if (health.drifted) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "index drift: mean nearest-rep distance ratio %.2f > %.2f "
                  "(epoch %llu, %zu appended records)",
                  health.drift_ratio, options_.drift_ratio_threshold,
                  static_cast<unsigned long long>(health.epoch),
                  health.num_records - health.baseline_records);
    RaiseDirectLocked(obs::SloObjective::kIndexDrift, "index_drift", buf,
                      now);
  }
}

void ServerMonitor::OnFault(const char* kind, const std::string& detail) {
  const double now = clock_->NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find_if(fault_counts_.begin(), fault_counts_.end(),
                         [&](const auto& kv) { return kv.first == kind; });
  if (it == fault_counts_.end()) {
    fault_counts_.emplace_back(kind, 1);
  } else {
    it->second += 1;
  }
  RaiseDirectLocked(obs::SloObjective::kErrors, kind,
                    std::string("fault: ") + kind +
                        (detail.empty() ? "" : " (" + detail + ")"),
                    now);
  MaybeDumpLocked(kind, now);
}

void ServerMonitor::DrainSloAlerts(double now_seconds) {
  std::vector<obs::Alert> fresh = slo_.TakeAlerts();
  if (fresh.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (obs::Alert& alert : fresh) {
    MaybeDumpLocked(std::string("slo_burn:") +
                        obs::SloObjectiveName(alert.objective),
                    now_seconds);
    alert_log_.push_back(std::move(alert));
  }
}

void ServerMonitor::RaiseDirectLocked(obs::SloObjective objective,
                                      const std::string& tag,
                                      std::string message,
                                      double now_seconds) {
  // Direct alerts (drift, faults) bypass burn-rate evaluation but share a
  // per-trigger cooldown so a flapping breaker raises one alert, not one
  // per trip.
  const std::string key = obs::SloObjectiveName(objective) + (":" + tag);
  auto it = std::find_if(
      last_direct_alert_.begin(), last_direct_alert_.end(),
      [&](const auto& kv) { return kv.first == key; });
  if (it != last_direct_alert_.end() &&
      now_seconds - it->second < options_.event_alert_cooldown_seconds) {
    return;
  }
  if (it == last_direct_alert_.end()) {
    last_direct_alert_.emplace_back(key, now_seconds);
  } else {
    it->second = now_seconds;
  }
  obs::Alert alert;
  alert.objective = objective;
  alert.message = std::move(message);
  alert.fired_at_seconds = now_seconds;
  alert_log_.push_back(std::move(alert));
  direct_alerts_ += 1;
  MaybeDumpLocked("alert:" + std::string(obs::SloObjectiveName(objective)),
                  now_seconds);
}

void ServerMonitor::MaybeDumpLocked(const std::string& reason,
                                    double now_seconds) {
  if (options_.flight_dump_path.empty()) return;
  if (dump_files_.size() >= options_.max_flight_dumps) return;
  if (last_dump_seconds_ >= 0.0 &&
      now_seconds - last_dump_seconds_ < options_.dump_cooldown_seconds) {
    return;
  }
  const std::string path = options_.flight_dump_path + "-" +
                           std::to_string(dump_files_.size() + 1) + ".json";
  const Status status =
      obs::FlightRecorder::Global().Dump(path, reason);
  if (!status.ok()) return;  // dump failure must never take down serving
  last_dump_seconds_ = now_seconds;
  dump_files_.push_back(path);
}

void ServerMonitor::Poll() {
  if (server_ == nullptr) return;
  // Sample before taking mu_: the server accessors take server locks, and
  // holding both would couple the two lock orders.
  const ScoreCacheStats cache = server_->score_cache_stats();
  const SchedulerStats sched = server_->scheduler_stats();
  const ServerStats stats = server_->stats();
  const ShedderStats shed = server_->shedder_stats();
  std::lock_guard<std::mutex> lock(mu_);
  cache_stats_ = cache;
  scheduler_stats_ = sched;
  server_stats_ = stats;
  shedder_stats_ = shed;
  polled_ = true;
}

obs::LiveStats ServerMonitor::Collect() {
  Poll();
  const double now = clock_->NowSeconds();
  DrainSloAlerts(now);
  obs::LiveStats live;

  static constexpr struct {
    const char* label;
    double q;
  } kQuantiles[] = {{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}};

  for (size_t k = 0; k < kNumKinds; ++k) {
    const obs::WindowSnapshot snap = kind_sketches_[k]->Snapshot(now);
    const std::string kind = QueryKindName(static_cast<QueryKind>(k));
    for (const auto& quantile : kQuantiles) {
      live.Add("tasti_query_latency_ms", snap.Quantile(quantile.q),
               {{"kind", kind}, {"quantile", quantile.label}}, 'g',
               "sliding-window query latency quantiles per query kind");
    }
    live.Add("tasti_query_window_count", static_cast<double>(snap.count),
             {{"kind", kind}}, 'g',
             "queries inside the sliding latency window");
  }
  for (size_t p = 0; p < kNumPhases; ++p) {
    const obs::WindowSnapshot snap = phase_sketches_[p]->Snapshot(now);
    for (const auto& quantile : kQuantiles) {
      live.Add("tasti_query_phase_ms", snap.Quantile(quantile.q),
               {{"phase", PhaseName(p)}, {"quantile", quantile.label}}, 'g',
               "sliding-window per-phase latency quantiles");
    }
  }

  static constexpr obs::SloObjective kObjectives[] = {
      obs::SloObjective::kLatency, obs::SloObjective::kErrors,
      obs::SloObjective::kOracleBudget, obs::SloObjective::kIndexDrift};
  for (obs::SloObjective objective : kObjectives) {
    const obs::BurnRates burn = slo_.Burn(objective, now);
    live.Add("tasti_slo_burn_rate", burn.fast,
             {{"objective", obs::SloObjectiveName(objective)},
              {"window", "fast"}},
             'g', "SLO error-budget burn rate per objective and window");
    live.Add("tasti_slo_burn_rate", burn.slow,
             {{"objective", obs::SloObjectiveName(objective)},
              {"window", "slow"}},
             'g');
  }

  live.Add("tasti_queries_failed_total",
           static_cast<double>(failed_.load(std::memory_order_relaxed)), {},
           'c', "completed queries with non-ok status");

  std::lock_guard<std::mutex> lock(mu_);
  live.Add("tasti_slo_alerts_total",
           static_cast<double>(slo_.alerts_raised() + direct_alerts_), {},
           'c', "alerts raised (burn-rate, drift, and fault)");
  live.Add("tasti_flight_dumps_total",
           static_cast<double>(dump_files_.size()), {}, 'c',
           "flight-recorder dump files written");
  for (const auto& [kind, count] : fault_counts_) {
    live.Add("tasti_faults_total", static_cast<double>(count),
             {{"kind", kind}}, 'c', "faults observed by kind");
  }

  live.Add("tasti_index_epoch", static_cast<double>(health_.epoch), {}, 'g',
           "current index epoch");
  live.Add("tasti_index_records", static_cast<double>(health_.num_records),
           {}, 'g', "records covered by the current epoch");
  live.Add("tasti_index_representatives",
           static_cast<double>(health_.num_representatives), {}, 'g',
           "representatives in the current epoch");
  live.Add("tasti_index_degraded_reps",
           static_cast<double>(health_.degraded_representatives), {}, 'g',
           "representatives whose oracle label is missing (degraded)");
  live.Add("tasti_index_drift_ratio", health_.drift_ratio, {}, 'g',
           "recent/baseline mean nearest-rep distance ratio");
  live.Add("tasti_index_drifted", health_.drifted ? 1.0 : 0.0, {}, 'g',
           "1 when the drift ratio exceeds the configured threshold");

  if (polled_) {
    // Queued plus executing: the depth the shedder admits against.
    live.Add("tasti_queue_depth",
             static_cast<double>(server_stats_.queries_submitted -
                                 server_stats_.queries_completed),
             {}, 'g', "queries queued or executing at the last poll");
    live.Add("tasti_queries_submitted_total",
             static_cast<double>(server_stats_.queries_submitted), {}, 'c',
             "queries admitted by the monitored server");
    for (size_t p = 0; p < kNumQueryPriorities; ++p) {
      live.Add("tasti_queries_shed_total",
               static_cast<double>(shedder_stats_.shed_by_class[p]),
               {{"priority",
                 QueryPriorityName(static_cast<QueryPriority>(p))}},
               'c', "queries rejected at admission by the load shedder");
    }
    live.Add("tasti_epochs_published",
             static_cast<double>(server_stats_.epochs_published), {}, 'c',
             "epoch snapshots published since Start");
    live.Add("tasti_queries_completed_total",
             static_cast<double>(server_stats_.queries_completed), {}, 'c',
             "queries completed by the server");
    live.Add("tasti_oracle_invocations_total",
             static_cast<double>(server_stats_.index_invocations +
                                 server_stats_.query_invocations),
             {}, 'c', "oracle invocations attributed to build + queries");

    live.Add("tasti_score_cache_hit_ratio", cache_stats_.hit_ratio(), {},
             'g', "fraction of proxy lookups served by the score cache");
    const double delta_ratio =
        cache_stats_.lookups == 0
            ? 0.0
            : static_cast<double>(cache_stats_.delta_hits) /
                  static_cast<double>(cache_stats_.lookups);
    live.Add("tasti_score_cache_delta_ratio", delta_ratio, {}, 'g',
             "fraction of proxy lookups advanced incrementally");
    live.Add("tasti_score_cache_resident_entries",
             static_cast<double>(cache_stats_.resident_entries), {}, 'g',
             "completed score-cache entries resident");
    live.Add("tasti_score_cache_resident_bytes",
             static_cast<double>(cache_stats_.resident_bytes), {}, 'g',
             "approximate bytes held by the score cache");

    const double batch_efficiency =
        scheduler_stats_.logical_requests == 0
            ? 0.0
            : static_cast<double>(scheduler_stats_.saved_calls()) /
                  static_cast<double>(scheduler_stats_.logical_requests);
    live.Add("tasti_scheduler_batch_efficiency", batch_efficiency, {}, 'g',
             "oracle calls saved per logical label request");
    const double mean_batch =
        scheduler_stats_.batches == 0
            ? 0.0
            : static_cast<double>(scheduler_stats_.physical_calls) /
                  static_cast<double>(scheduler_stats_.batches);
    live.Add("tasti_scheduler_mean_batch_size", mean_batch, {}, 'g',
             "physical oracle calls per dispatch");
    live.Add("tasti_scheduler_max_batch_size",
             static_cast<double>(scheduler_stats_.max_batch_size), {}, 'g',
             "largest single oracle dispatch");
    live.Add("tasti_scheduler_physical_calls_total",
             static_cast<double>(scheduler_stats_.physical_calls), {}, 'c',
             "physical oracle calls made by the scheduler");

    live.Add("tasti_degraded_responses_total",
             static_cast<double>(server_stats_.degraded_responses), {}, 'c',
             "completed queries whose answer was degraded");
    live.Add("tasti_deadline_expired_total",
             static_cast<double>(server_stats_.deadline_expired), {}, 'c',
             "queries whose deadline expired mid-execution");
  }
  return live;
}

std::string ServerMonitor::StatusLine() {
  Poll();
  const double now = clock_->NowSeconds();
  DrainSloAlerts(now);

  // Overall latency: merge the per-kind sketches (identical bounds).
  obs::WindowSnapshot all = kind_sketches_[0]->Snapshot(now);
  for (size_t k = 1; k < kNumKinds; ++k) {
    const obs::WindowSnapshot snap = kind_sketches_[k]->Snapshot(now);
    for (size_t b = 0; b < all.buckets.size(); ++b) {
      all.buckets[b] += snap.buckets[b];
    }
    all.count += snap.count;
    all.sum += snap.sum;
  }
  const obs::BurnRates latency_burn =
      slo_.Burn(obs::SloObjective::kLatency, now);

  uint64_t alerts = slo_.alerts_raised();
  size_t dumps = 0;
  double cache_hit = 0.0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t degraded = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    alerts += direct_alerts_;
    dumps = dump_files_.size();
    cache_hit = cache_stats_.hit_ratio();
    completed = server_stats_.queries_completed;
    shed = server_stats_.queries_shed;
    degraded = server_stats_.degraded_responses;
  }

  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "t=%.1fs q=%llu win=%llu p50=%.2fms p95=%.2fms p99=%.2fms "
      "burn(lat)=%.2f/%.2f cache=%.2f shed=%llu degr=%llu "
      "alerts=%llu dumps=%zu",
      now, static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(all.count), all.Quantile(0.50),
      all.Quantile(0.95), all.Quantile(0.99), latency_burn.fast,
      latency_burn.slow, cache_hit, static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(degraded),
      static_cast<unsigned long long>(alerts), dumps);
  return buf;
}

std::vector<obs::Alert> ServerMonitor::alerts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alert_log_;
}

uint64_t ServerMonitor::alerts_raised() const {
  uint64_t direct = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    direct = direct_alerts_;
  }
  return slo_.alerts_raised() + direct;
}

std::vector<std::string> ServerMonitor::dump_files() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dump_files_;
}

IndexHealth ServerMonitor::index_health() const {
  std::lock_guard<std::mutex> lock(mu_);
  return health_;
}

}  // namespace tasti::serve
