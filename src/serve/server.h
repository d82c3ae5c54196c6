#ifndef TASTI_SERVE_SERVER_H_
#define TASTI_SERVE_SERVER_H_

/// \file server.h
/// TastiServer: the one query engine — many concurrent queries against one
/// shared TASTI index. A TastiSession is this server with one worker,
/// started on first use. Under a remote oracle most of a query's wall time
/// is oracle latency, so the server runs queries on a worker pool where they
///  - read immutable epoch snapshots (snapshot.h) — cracking publishes new
///    epochs copy-on-write, readers never block or see torn state;
///  - share one OracleScheduler (oracle_scheduler.h) — concurrent label
///    requests dedup, batch, and hit a server-wide cache, so a record
///    annotated for one query (or for the index build, which labels
///    through the scheduler too) is free for every later one;
///  - share proxy scores through a server-wide ScoreCache (score_cache.h)
///    — the first query needing a (scorer, mode, epoch) triple computes
///    it, concurrent queries wait on the same future, later epochs advance
///    the parent epoch's scores incrementally through the snapshot's
///    dirty-row delta instead of recomputing every record.
///
/// After answering with an OK status, a query re-annotates up to
/// kMaxRepRepairsPerQuery of its snapshot's failed representatives (labels
/// the index build could not get) through its own oracle context and
/// within its deadline; a query that failed mutates nothing.
///
/// Every index mutation — a query's repairs and crack, or an append —
/// is queued as its WAL records. Whoever next holds the crack lock applies
/// everything queued (appends first, then by query id) with durable::Apply,
/// as recovery does, behind one epoch marker, fsync and snapshot publish.
///
/// Admission control bounds the work in flight: a FIFO queue capped at
/// max_pending.
///
/// Deterministic mode makes a served workload reproducible: queries only
/// queue their mutations and Drain() commits them (every query in a wave
/// reads the same epoch), and per-query seeds derive from the query id
/// alone — so result payloads are bit-identical whether the wave ran on
/// one worker or K.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/index.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "data/dataset.h"
#include "durable/checkpoint.h"
#include "durable/recovery.h"
#include "labeler/labeler.h"
#include "obs/query_log.h"
#include "serve/deadline.h"
#include "serve/oracle_scheduler.h"
#include "serve/query.h"
#include "serve/score_cache.h"
#include "serve/shedder.h"
#include "serve/snapshot.h"
#include "util/status.h"
#include "util/timer.h"

namespace tasti::serve {

class ServerMonitor;

/// Failed representatives one query re-annotates after answering. Bounds
/// the extra oracle cost a degraded index adds to each query.
constexpr size_t kMaxRepRepairsPerQuery = 16;

/// Overload/degradation policy (DESIGN.md §15).
struct DegradeOptions {
  /// Admission-time load shedding; disabled by default.
  ShedderOptions shedder;
  /// > 0 switches per-query deadlines to virtual-time accounting, charging
  /// this flat cost per logical oracle call — bit-reproducible expiry
  /// independent of host speed (deadline.h). 0 = wall-clock deadlines.
  double virtual_ms_per_call = 0.0;
};

struct ServerOptions {
  /// Query worker threads.
  size_t num_workers = 4;
  /// Admission bound: queries queued or executing. Submit blocks beyond it.
  size_t max_pending = 64;
  /// Crack the index with each query's annotations.
  bool auto_crack = true;
  /// Reproducible serving: queries only queue their mutations and Drain()
  /// commits the wave (in query-id order), so a wave's result payloads are
  /// independent of worker count and scheduling order. An AppendRecords
  /// mid-wave commits the queued mutations with the append.
  bool deterministic = false;
  SchedulerOptions scheduler;
  /// Overload behavior: load shedding, deadline accounting.
  DegradeOptions degrade;
  /// Crash-safe durability (durable/checkpoint.h): when `durability.dir`
  /// is set, every crack, repair and append is WAL-logged, each commit
  /// ends in one epoch marker and fsync barrier before its publish, and
  /// the index is checkpointed on the configured cadence, so
  /// RecoverFrom() can rebuild the exact published epoch after a crash.
  /// Empty dir (the default) disables durability. Logging failures degrade
  /// to memory-only serving with a monitor fault — they never fail a query.
  durable::DurabilityOptions durability;
  /// Index construction parameters (Start() builds the index).
  core::IndexOptions index;
  /// Success probability shared by guarantee-carrying queries.
  double confidence = 0.95;
  /// Base seed; query n draws DeriveQuerySeed(seed, n).
  uint64_t seed = 1234;
};

/// Aggregate server tallies. Safe to read live, from any thread, while a
/// workload is executing: counters are copied under the server mutex, the
/// epoch tallies are atomics, and the shed count is read from the
/// shedder's own stats. Every tally counts over the server object's life,
/// across RecoverFrom() warm restarts, except the attribution ledger
/// (index_invocations, query_invocations), which restarts with each
/// incarnation because the invariant compares it with this incarnation's
/// oracle calls.
struct ServerStats {
  uint64_t queries_submitted = 0;
  uint64_t queries_completed = 0;
  size_t index_invocations = 0;  ///< per incarnation
  /// Sum of attributed_invocations over this incarnation's completed
  /// queries.
  size_t query_invocations = 0;
  uint64_t epochs_published = 0;
  size_t live_snapshots = 0;
  // Degradation tallies (DESIGN.md §15).
  uint64_t queries_shed = 0;        ///< ShedderStats::shed_total
  uint64_t degraded_responses = 0;  ///< completed with degraded = true
  uint64_t deadline_expired = 0;    ///< completed with deadline_hit = true
};

/// The serving engine. All public methods are thread-safe; Start() must
/// complete before the first Submit().
class TastiServer {
 public:
  /// The dataset and oracle must outlive the server. The oracle is shared
  /// by index construction and every query; with parallel batch dispatch
  /// it must be thread-safe (see SchedulerOptions::parallel_dispatch).
  TastiServer(const data::Dataset* dataset, labeler::FallibleLabeler* oracle,
              ServerOptions options);
  ~TastiServer();

  TastiServer(const TastiServer&) = delete;
  TastiServer& operator=(const TastiServer&) = delete;

  /// Attaches a live-telemetry monitor (serve/monitor.h): the server
  /// drives its completion, epoch-publish and fault hooks, and the
  /// monitor's Poll() reads stats(). Must be called before Start(); the
  /// monitor must outlive the server. Pass nullptr to detach.
  void AttachMonitor(ServerMonitor* monitor);

  /// Starts the oracle scheduler, builds the index through it (charging
  /// the oracle and seeding the scheduler's label cache), publishes epoch
  /// 1, and starts the workers. Call once.
  Status Start();

  /// Crash recovery: instead of rebuilding, loads the latest checkpoint
  /// from `dir` (default: options().durability.dir), replays the WAL's
  /// committed records — yielding an index bit-identical to the last
  /// durably published epoch — republishes that epoch, and starts serving.
  /// The proxy-score cache is explicitly invalidated (a warm restart
  /// reuses epoch ids whose cached state the crash threw away) and the
  /// oracle scheduler starts cold. Unreadable WAL segments are quarantined
  /// with a monitor fault rather than refusing to start; durable logging
  /// resumes into a fresh segment plus an immediate checkpoint. Callable
  /// on a fresh server or after Shutdown() (warm restart); NotFound means
  /// no durable state exists and the caller should Start() cold.
  Status RecoverFrom(const std::string& dir = "");

  /// Enqueues a query, blocking while max_pending queries are in flight;
  /// returns its id. Fails with ResourceExhausted when the shedder drops
  /// it, Unavailable after Shutdown, FailedPrecondition before Start.
  Result<uint64_t> Submit(const QuerySpec& spec);

  /// Blocks until query `query_id` completes and returns its response
  /// (each id may be waited on once).
  QueryResponse Wait(uint64_t query_id);

  /// Wait with a timeout: nullopt if the query has not completed within
  /// `timeout_ms`. The query keeps running; call again or Abandon().
  std::optional<QueryResponse> WaitFor(uint64_t query_id, double timeout_ms);

  /// Gives up on a query: cancels its deadline token if it is executing
  /// (it stops at the next phase boundary) and discards its response when
  /// it completes. Used by the sharded gatherer for straggler shards the
  /// merged answer no longer needs.
  void Abandon(uint64_t query_id);

  /// Submit + Wait.
  QueryResponse Execute(const QuerySpec& spec);

  /// Blocks until every submitted query has completed. In deterministic
  /// mode, then commits the wave's queued mutations (in query-id order) as
  /// one epoch.
  void Drain();

  /// Drains and stops the workers. Subsequent Submits fail; idempotent.
  void Shutdown();

  /// Streaming ingestion: embeds `features`, appends them as new records
  /// (nearest-rep assignment, no new labels), and commits — with whatever
  /// else is queued — an epoch carrying the appended-row delta. Returns the
  /// index of the first appended record. Requires the index to have been
  /// built with its embedding network (core::TastiIndex::AppendRecords).
  /// Thread-safe against concurrent queries and cracks.
  size_t AppendRecords(const nn::Matrix& features);

  // --- Introspection ---

  /// Live-safe: may be called from any thread at any time.
  ServerStats stats() const;
  /// Live-safe; all zeros before Start(). Counts the index build's labels
  /// too (physical_calls, logical_requests, cached_labels), since Start()
  /// builds through the scheduler; after RecoverFrom() the scheduler starts
  /// cold.
  SchedulerStats scheduler_stats() const {
    return scheduler_ == nullptr ? SchedulerStats{} : scheduler_->stats();
  }
  ScoreCacheStats score_cache_stats() const { return score_cache_.stats(); }
  /// Live-safe admission shedder tallies.
  ShedderStats shedder_stats() const { return shedder_.stats(); }
  const ServerOptions& options() const { return options_; }
  /// Zeros when durability is disabled (or its manager failed to open).
  durable::DurabilityStats durability_stats() const;
  /// Stats of the last RecoverFrom(); nullopt if never recovered.
  const std::optional<durable::RecoveryStats>& last_recovery() const {
    return recovery_stats_;
  }
  /// Serialized bytes of the master index (core/serialize.h). The crash
  /// harness hashes this to compare a recovered server against a control
  /// run. Call quiescent (after Drain).
  Result<std::string> SerializeIndex() const;
  /// The master index. Call quiescent (after Drain), once Start() or
  /// RecoverFrom() has succeeded.
  const core::TastiIndex& index() const;
  uint64_t current_epoch() const { return epochs_.current_epoch(); }
  /// Snapshots alive right now (current + retired-but-pinned).
  size_t live_snapshots() const { return epochs_.live_snapshots(); }
  const EpochManager& epochs() const { return epochs_; }
  size_t index_invocations() const { return index_invocations_; }

  /// Verifies the server-wide attribution invariant: every oracle
  /// invocation made since construction is accounted to the index build or
  /// to exactly one completed query. Call quiescent (after Drain).
  Status CheckAttributionInvariant() const;

  /// Per-query cost ledger (one record per completed query, plus the index
  /// build). Read quiescent (after Drain).
  const obs::QueryLog& query_log() const { return query_log_; }

 private:
  struct PendingQuery {
    uint64_t query_id = 0;
    QuerySpec spec;
    WallTimer queued;            ///< running since Submit
    double queue_wait_ms = 0.0;  ///< read from `queued` once, at dequeue
  };
  /// A queued mutation: a query's kRepair records then its kCrack record,
  /// or, with query id 0, one kAppend record; and where its committer
  /// reports what they changed (null when nobody waits for it: a
  /// deterministic query's). `applied` points into the queuing caller's
  /// frame, which stays alive because that caller runs Commit() next, and
  /// Commit() cannot take crack_mu_ before any earlier commit holding this
  /// entry has written it.
  struct QueuedMutation {
    uint64_t query_id = 0;
    std::vector<durable::WalRecord> records;
    durable::Applied* applied = nullptr;
  };
  void WorkerLoop();
  QueryResponse RunQuery(PendingQuery pending);
  /// Queues one mutation's records for the next Commit().
  void Enqueue(uint64_t query_id, std::vector<durable::WalRecord> records,
               durable::Applied* applied);
  /// The one commit path: takes crack_mu_ and applies every queued record
  /// (appends first, then by query id) with durable::Apply, logging each
  /// record that changed the index, behind one epoch marker, one fsync and
  /// one snapshot publish (carrying the dirty-row delta for the score
  /// cache). A caller that queued a mutation returns with it applied, by
  /// this commit or by an earlier holder of crack_mu_.
  void Commit();
  /// WAL-logs one applied record under crack_mu_ unless `*fault` is set;
  /// a failure fills `*fault` for the caller to raise outside locks —
  /// logging failures degrade durability, never the query.
  void LogLocked(durable::WalRecord record, std::string* fault);
  /// Logs the epoch-publish marker and issues the fsync barrier (plus the
  /// cadenced checkpoint); returns a fault detail, empty on success.
  std::string CommitEpochLocked(uint64_t epoch);
  /// Under crack_mu_: snapshots the master index as `epoch` (its delta
  /// against `parent`, 0 for none) and publishes it, as `serve.publish`.
  void PublishEpochLocked(uint64_t epoch, uint64_t parent);
  /// Spawns the worker pool (Start and RecoverFrom share it).
  void SpawnWorkers();
  /// Logs a completed query, its phase times read from `spans` (the
  /// query's span totals), and forwards it to the monitor.
  void AppendQueryRecord(const QueryResponse& response, const QuerySpec& spec,
                         const obs::SpanTotals& spans,
                         size_t failed_oracle_calls);
  /// Forwards the freshly published epoch to the monitor (outside all
  /// server locks).
  void NotifyEpochPublished();

  const data::Dataset* dataset_;
  labeler::FallibleLabeler* oracle_;
  const ServerOptions options_;
  ServerMonitor* monitor_ = nullptr;  ///< set before Start(), then read-only

  // Oracle invocations predating the server (invariant baseline).
  size_t baseline_invocations_ = 0;
  size_t index_invocations_ = 0;

  // Master index: mutated only under crack_mu_, by Commit(); queries read
  // snapshots.
  mutable std::mutex crack_mu_;
  std::optional<core::TastiIndex> index_;
  uint64_t next_epoch_ = 1;
  // Mutations waiting for the next Commit(), as their WAL records.
  // commit_mu_ nests inside crack_mu_.
  std::mutex commit_mu_;
  std::vector<QueuedMutation> commit_queue_;
  // Durable logging state (null when durability is disabled or degraded);
  // guarded by crack_mu_ like the index it persists.
  std::unique_ptr<durable::DurabilityManager> durability_;
  std::optional<durable::RecoveryStats> recovery_stats_;

  EpochManager epochs_;
  std::unique_ptr<OracleScheduler> scheduler_;
  ScoreCache score_cache_;

  // Admission + completion state.
  mutable std::mutex mu_;
  std::condition_variable admit_cv_;   ///< space / stop for blocked Submits
  std::condition_variable work_cv_;    ///< queue non-empty / stop for workers
  std::condition_variable done_cv_;    ///< completions for Wait/Drain
  bool started_ = false;
  bool stopping_ = false;
  uint64_t next_query_id_ = 0;
  std::deque<PendingQuery> queue_;
  size_t executing_ = 0;
  std::unordered_map<uint64_t, QueryResponse> completed_;
  uint64_t queries_completed_ = 0;
  size_t query_invocations_ = 0;
  // Degradation bookkeeping (guarded by mu_ like the tallies above).
  uint64_t degraded_responses_ = 0;
  uint64_t deadline_expired_ = 0;
  /// Deadline tokens of executing queries, so Abandon() can cancel them.
  std::unordered_map<uint64_t, Deadline> running_deadlines_;
  /// Queries whose response should be discarded on completion.
  std::unordered_set<uint64_t> abandoned_;

  LoadShedder shedder_;

  std::mutex log_mu_;
  obs::QueryLog query_log_;

  std::vector<std::thread> workers_;
};

}  // namespace tasti::serve

#endif  // TASTI_SERVE_SERVER_H_
