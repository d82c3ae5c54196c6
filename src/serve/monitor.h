#ifndef TASTI_SERVE_MONITOR_H_
#define TASTI_SERVE_MONITOR_H_

/// \file monitor.h
/// ServerMonitor: live telemetry for a running TastiServer.
///
/// Attach one to a server before Start() and it observes the serving path
/// through three hooks — query completion, epoch publish, fault — plus a
/// pull-style Poll() that reads the server's stats (ServerStats, the
/// score cache's, the oracle scheduler's and the shedder's). The monitor
/// keeps no copy of a tally those stats own: submitted, completed and shed
/// counts and the queue depth are read from them at poll time. From the
/// hooks it maintains:
///  - sliding-window latency quantiles (p50/p95/p99) per QueryKind and
///    per query phase (proxy compute, algorithm, oracle wait, crack);
///  - multi-window SLO burn rates (obs::SloTracker) over latency, error
///    rate, and per-query oracle budget, raising Alerts on sustained burn;
///  - index-health gauges refreshed on every epoch publish: DetectDrift
///    ratio of appended records vs. the baseline, degraded-representative
///    counts, epochs published;
///  - flight-recorder dumps (obs::FlightRecorder) written when an alert
///    fires, a query breaches the SLO latency threshold, or a fault /
///    circuit-breaker trip is reported — rate-limited and bounded.
///
/// Collect() renders everything as obs::LiveStats for
/// obs::WriteExposition; StatusLine() renders a one-line status frame for
/// interactive monitoring (tasti_cli monitor).
///
/// Threading: hooks are called concurrently by worker threads; each
/// sketch/tracker has its own short-lived lock and the monitor's own
/// mutex guards only alert/dump/health bookkeeping. The monitor never
/// calls back into the server while holding its mutex (Poll samples the
/// server first, then stores), so no lock order couples the two. Time
/// comes from an injectable obs::Clock, making window rotation and alert
/// cooldowns deterministic in tests (DESIGN.md §12).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/drift.h"
#include "obs/live.h"
#include "obs/query_log.h"
#include "serve/server.h"

namespace tasti::serve {

struct MonitorOptions {
  /// Queries slower than slo.latency_threshold_ms also trigger a flight
  /// dump.
  obs::SloConfig slo;
  /// Mean nearest-rep distance inflation that flags index drift.
  double drift_ratio_threshold = 1.3;
  /// Flight-dump path prefix; files are "<prefix>-1.json",
  /// "<prefix>-2.json", ... Empty disables dumping.
  std::string flight_dump_path;
  /// At most this many dump files per monitor (forensics, not logging).
  size_t max_flight_dumps = 4;
  /// Minimum spacing between dumps.
  double dump_cooldown_seconds = 5.0;
  /// Minimum spacing between direct drift/fault alerts per trigger kind
  /// (burn-rate alerts use slo.alert_cooldown_seconds).
  double event_alert_cooldown_seconds = 60.0;
};

/// Point-in-time index health, refreshed by OnEpochPublish.
struct IndexHealth {
  uint64_t epoch = 0;
  size_t num_records = 0;
  size_t num_representatives = 0;
  size_t degraded_representatives = 0;
  /// DetectDrift of records appended after the baseline epoch; ratio 1.0
  /// until any records are appended.
  double drift_ratio = 1.0;
  bool drifted = false;
  size_t baseline_records = 0;
};

class ServerMonitor {
 public:
  /// `clock` may be null (a SteadyClock is created and owned). A non-null
  /// clock must outlive the monitor.
  explicit ServerMonitor(MonitorOptions options,
                         const obs::Clock* clock = nullptr);

  ServerMonitor(const ServerMonitor&) = delete;
  ServerMonitor& operator=(const ServerMonitor&) = delete;

  // --- Hooks driven by TastiServer (via AttachMonitor) ---

  /// Called by TastiServer::AttachMonitor.
  void BindServer(const TastiServer* server);

  void OnQueryComplete(const QueryResponse& response,
                       const obs::QueryPhaseTimes& phases,
                       size_t failed_oracle_calls);
  void OnEpochPublish(const IndexSnapshot& snapshot);
  /// Out-of-band fault: `kind` is a short stable tag ("breaker_open",
  /// "oracle_failure", ...). Raises an alert and requests a flight dump.
  /// Safe to call from callbacks holding unrelated locks (e.g. the
  /// resilient labeler's breaker transition) — it never calls out.
  void OnFault(const char* kind, const std::string& detail);

  // --- Pull side ---

  /// Samples server / score-cache / scheduler / shedder stats from the
  /// bound server. Called implicitly by Collect() and StatusLine();
  /// harmless without a server.
  void Poll();

  /// Everything as exposition-ready samples (calls Poll()).
  obs::LiveStats Collect();

  /// One-line status frame, e.g.
  ///   t=12.0s q=96 p50=1.2ms p95=8.9ms p99=14ms burn(lat)=0.0 hit=0.92
  ///   alerts=0 dumps=0
  std::string StatusLine();

  // --- Introspection ---

  /// Every alert raised so far (burn-rate, drift, fault).
  std::vector<obs::Alert> alerts() const;
  uint64_t alerts_raised() const;
  /// Flight-dump files written so far.
  std::vector<std::string> dump_files() const;
  IndexHealth index_health() const;
  const obs::SloTracker& slo() const { return slo_; }
  obs::BurnRates Burn(obs::SloObjective objective) const {
    return slo_.Burn(objective, clock_->NowSeconds());
  }

 private:
  static constexpr size_t kNumKinds = 6;
  // proxy = rep scoring + propagation; the other phases map 1:1 onto
  // QueryPhaseTimes.
  enum Phase { kPhaseProxy, kPhaseAlgorithm, kPhaseOracle, kPhaseCrack };
  static constexpr size_t kNumPhases = 4;
  static const char* PhaseName(size_t phase);

  /// Takes freshly raised SLO alerts, records them, and requests dumps.
  void DrainSloAlerts(double now_seconds);
  /// Appends a directly raised (non-burn) alert under mu_. `tag` keys the
  /// per-trigger cooldown (stable across repeated firings).
  void RaiseDirectLocked(obs::SloObjective objective, const std::string& tag,
                         std::string message, double now_seconds);
  /// Writes a flight dump if allowed (bounded + cooldown). Caller holds
  /// mu_.
  void MaybeDumpLocked(const std::string& reason, double now_seconds);

  const MonitorOptions options_;
  std::unique_ptr<obs::Clock> owned_clock_;
  const obs::Clock* clock_;

  obs::SloTracker slo_;
  std::vector<std::unique_ptr<obs::SlidingQuantileSketch>> kind_sketches_;
  std::vector<std::unique_ptr<obs::SlidingQuantileSketch>> phase_sketches_;

  const TastiServer* server_ = nullptr;

  std::atomic<uint64_t> failed_{0};

  mutable std::mutex mu_;
  std::vector<obs::Alert> alert_log_;
  uint64_t direct_alerts_ = 0;
  std::vector<std::string> dump_files_;
  double last_dump_seconds_ = -1.0;
  // Per-trigger cooldown stamps for direct alerts, keyed by tag.
  std::vector<std::pair<std::string, double>> last_direct_alert_;
  std::vector<std::pair<std::string, uint64_t>> fault_counts_;
  IndexHealth health_;
  // Cached server-side stats from the last Poll().
  ScoreCacheStats cache_stats_;
  SchedulerStats scheduler_stats_;
  ServerStats server_stats_;
  ShedderStats shedder_stats_;
  bool polled_ = false;
};

}  // namespace tasti::serve

#endif  // TASTI_SERVE_MONITOR_H_
