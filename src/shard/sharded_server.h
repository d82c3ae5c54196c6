#ifndef TASTI_SHARD_SHARDED_SERVER_H_
#define TASTI_SHARD_SHARDED_SERVER_H_

/// \file sharded_server.h
/// ShardedServer: scatter-gather serving over K per-shard TastiServers.
///
/// Each shard is a full TastiServer over its record range — own index,
/// worker pool, oracle scheduler, ScoreCache partition, epoch chain, and
/// (when durability is on) its own WAL/checkpoint directory
/// `<dir>/shard-<s>`. A query scatters to every shard as a sub-query
/// (budgets split proportionally to shard size, confidence tightened to
/// ShardConfidence so the union bound recovers the requested level) and
/// the partials gather through the per-kind mergers in queries/merge.h.
/// Limit queries dispatch shards sequentially and stop as soon as enough
/// matches accumulated, so a hit-rich first shard spares the rest any
/// oracle spend.
///
/// Cracks stay shard-local by construction: a sub-query's annotations are
/// records of its own shard, so auto-crack republishes only that shard's
/// epoch — the other K-1 shards keep serving their current snapshots and
/// their ScoreCache entries stay warm.
///
/// Global record ids stay stable — shard s owns [ShardBegin(s),
/// ShardEnd(s)) of core/partition.h and local ids are globals minus the
/// shard offset — so callers keep speaking global ids. Per-shard oracle
/// accounting goes through ShardLabelerView: a shard sees a labeler over
/// its own records that forwards to the dataset-wide oracle with the
/// offset applied, while counting the shard's invocations separately so
/// per-shard cost ledgers and the cross-shard attribution check hold.

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/index_options.h"
#include "core/partition.h"
#include "data/dataset.h"
#include "labeler/labeler.h"
#include "queries/merge.h"
#include "serve/server.h"

namespace tasti::shard {

/// Copies the [begin, end) record range of `dataset` into a standalone
/// shard-local dataset (ground truth, features, closeness, classes). The
/// shard's name is "<name>.shard<shard>".
data::Dataset SliceDataset(const data::Dataset& dataset, size_t begin,
                           size_t end, size_t shard);

/// A shard's window onto the dataset-wide oracle: local ids [0, size) map
/// to global ids [offset, offset + size). Invocations are counted per view
/// (atomically — views are hit from concurrent shard servers), so each
/// shard's cost ledger is independent; the underlying oracle still counts
/// every call per the FallibleLabeler contract, which is what makes the
/// cross-shard attribution check in ShardedServer exact.
class ShardLabelerView : public labeler::FallibleLabeler {
 public:
  /// The global oracle must outlive the view and be thread-safe when
  /// multiple shards dispatch concurrently.
  ShardLabelerView(labeler::FallibleLabeler* global, size_t offset,
                   size_t size)
      : global_(global), offset_(offset), size_(size) {}

  Result<data::LabelerOutput> TryLabel(size_t index) override {
    invocations_.fetch_add(1, std::memory_order_relaxed);
    return global_->TryLabel(offset_ + index);
  }
  size_t num_records() const override { return size_; }
  size_t invocations() const override {
    return invocations_.load(std::memory_order_relaxed);
  }
  /// Resets only this view's counter; the global oracle keeps counting.
  void ResetInvocations() override {
    invocations_.store(0, std::memory_order_relaxed);
  }
  double last_call_latency_ms() const override {
    return global_->last_call_latency_ms();
  }

  size_t offset() const { return offset_; }

 private:
  labeler::FallibleLabeler* global_;
  size_t offset_;
  size_t size_;
  std::atomic<size_t> invocations_{0};
};

/// Shard `shard`'s IndexOptions out of K = `num_shards`: seed offset by
/// the shard, and num_representatives / num_training_records divided by K
/// (floor 1 and 8 respectively), so the K-shard construction spends about
/// the oracle budget one index would, not K times it.
core::IndexOptions ShardIndexOptions(const core::IndexOptions& base,
                                     size_t shard, size_t num_shards);

/// Straggler hedging for scatter-gather queries (DESIGN.md §15). When a
/// shard's sub-query has not answered within the hedge delay — a quantile
/// of recently observed sub-query latencies — its sub-query is
/// re-dispatched once at a reduced oracle budget; whichever attempt
/// answers first wins and the other is abandoned.
struct HedgePolicy {
  bool enabled = false;
  /// Latency quantile of recent sub-queries used as the hedge delay.
  double delay_quantile = 0.95;
  /// Floor for the hedge delay; also the cold-start delay before any
  /// latency history exists.
  double min_delay_ms = 5.0;
  /// Hedge sub-queries run at this fraction of the primary's oracle
  /// budget (min 1): the straggler is likely oracle-bound, so the retry
  /// deliberately asks for a cheaper answer.
  double budget_fraction = 0.25;
};

struct ShardedServerOptions {
  size_t num_shards = 2;
  /// Straggler hedging for scattered sub-queries.
  HedgePolicy hedge;
  /// Degraded partial gather: when a deadline-bounded query's shards have
  /// not all answered at the deadline (or a shard failed / was shed),
  /// merge whatever answered through the queries/merge.h mergers with
  /// those shards marked absent — which explicitly widens the merged
  /// confidence —
  /// instead of failing the whole query. Requires at least one usable
  /// partial; the response is marked degraded with a per-shard
  /// completeness map.
  bool partial_gather = false;
  /// Per-shard server template. Applied per shard with: seed offset by
  /// shard, index options via ShardIndexOptions, confidence tightened to
  /// ShardConfidence(confidence, K), durability.dir suffixed "/shard-<s>".
  /// num_workers is per shard — K shards run K * num_workers workers.
  serve::ServerOptions server;
};

/// One scatter-gathered query: the merged dataset-level answer plus the
/// per-shard partials that produced it.
struct ShardedQueryResponse {
  /// Merged payload; `epoch` is the max shard epoch involved and the
  /// accounting fields are sums over partials.
  serve::QueryResponse merged;
  /// Per-shard responses, in shard order. For early-terminated limit
  /// queries only the first shards_queried entries exist.
  std::vector<serve::QueryResponse> partials;
  /// Shards actually dispatched (== num_shards except limit early stop).
  size_t shards_queried = 0;
  /// Epoch each dispatched shard answered at.
  std::vector<uint64_t> shard_epochs;
  /// Per-shard completeness map (parallel to partials): true when the
  /// shard delivered a usable partial that the merge consumed.
  std::vector<bool> shard_complete;
  /// Shards whose sub-query was re-dispatched by the hedge policy.
  size_t hedged_shards = 0;
  /// True when the merge ran over a strict subset of shards (absent
  /// shards widened the interval; merged.degraded is set). Absent-shard
  /// failure statuses are then informational, not merged.status.
  bool degraded_gather = false;
  /// Coverage of the gather, filled by the merger; defaults when no merge
  /// ran (the query failed).
  queries::GatherQuality quality;
};

/// Scatter-gather serving engine. Execute/AppendRecords/stats are
/// thread-safe; Start/RecoverFrom/Drain/Shutdown follow TastiServer's
/// lifecycle rules applied to every shard.
class ShardedServer {
 public:
  /// The dataset and oracle must outlive the server; the oracle must be
  /// thread-safe (shards dispatch to it concurrently).
  ShardedServer(const data::Dataset* dataset,
                labeler::FallibleLabeler* oracle, ShardedServerOptions options);

  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  /// Attaches a monitor to shard `s` (before Start, as with TastiServer).
  void AttachMonitor(size_t s, serve::ServerMonitor* monitor);

  /// Builds every shard's index and starts its serving stack, shards in
  /// parallel on the global ThreadPool. Returns the first shard failure,
  /// if any.
  Status Start();

  /// Per-shard recovery fan-out (shards in parallel): shard s recovers from
  /// `<dir>/shard-<s>` (dir defaults to the template durability dir).
  /// NotFound from any shard means the sharded deployment has no complete
  /// durable state and the caller should Start() cold.
  Status RecoverFrom(const std::string& dir = "");

  /// Scatters `spec` to the shards and merges the partials. Blocks until
  /// the merged answer is ready (sub-queries of one call run concurrently
  /// across shards; distinct Execute calls may also overlap).
  ShardedQueryResponse Execute(const serve::QuerySpec& spec);

  /// Drains every shard (deterministic mode: commits the queued cracks).
  void Drain();

  /// Drains and stops every shard; idempotent.
  void Shutdown();

  /// Appends records to the last shard's server (keeps global ids dense)
  /// and extends the partition. Returns the first appended global id.
  size_t AppendRecords(const nn::Matrix& features);

  // --- Introspection ---

  size_t num_shards() const { return servers_.size(); }
  const core::Partitioner& partitioner() const { return partitioner_; }
  serve::TastiServer& shard(size_t s) { return *servers_[s]; }
  const serve::TastiServer& shard(size_t s) const { return *servers_[s]; }
  ShardLabelerView* shard_view(size_t s) { return views_[s].get(); }

  /// Summed per-shard tallies (live-safe).
  serve::ServerStats stats() const;

  /// Current epoch of every shard (live-safe).
  std::vector<uint64_t> shard_epochs() const;

  /// Every shard's attribution invariant, plus the cross-shard ledger:
  /// the sum of per-shard accounted invocations must equal the calls the
  /// dataset-wide oracle saw since this server was constructed (exact
  /// because every view call forwards to exactly one oracle call). Call
  /// quiescent (after Drain).
  Status CheckAttributionInvariant() const;

  /// Concatenated per-shard serialized indexes (shard count + lengths +
  /// payloads); the crash harness hashes this to compare a recovered
  /// deployment against a control. Call quiescent.
  Result<std::string> SerializeIndex() const;

 private:
  serve::ServerOptions ShardServerOptions(size_t s) const;
  /// Scatter to all shards and gather all partials (non-limit kinds).
  ShardedQueryResponse ExecuteScattered(const serve::QuerySpec& spec);
  /// Sequential shard dispatch with early termination (limit).
  ShardedQueryResponse ExecuteLimit(const serve::QuerySpec& spec);
  /// Merges the present partials for a non-limit kind (absent shards
  /// widen the merged confidence).
  void MergePartials(const serve::QuerySpec& spec,
                     const std::vector<size_t>& sizes,
                     const std::vector<size_t>& offsets,
                     ShardedQueryResponse* response) const;
  /// Fills the merged response's kind/epoch/accounting from the partials.
  static void FoldAccounting(ShardedQueryResponse* response);
  /// Current hedge delay: `delay_quantile` of recent sub-query latencies,
  /// floored at min_delay_ms.
  double HedgeDelayMs() const;
  void RecordShardLatency(double ms);

  const data::Dataset* dataset_;
  labeler::FallibleLabeler* oracle_;
  const ShardedServerOptions options_;
  size_t baseline_invocations_ = 0;

  mutable std::mutex partition_mu_;  ///< guards partitioner_ growth
  core::Partitioner partitioner_;

  // Sub-query latency history driving the hedge delay (bounded ring).
  mutable std::mutex latency_mu_;
  std::vector<double> recent_latency_ms_;
  size_t latency_cursor_ = 0;

  std::vector<data::Dataset> shard_datasets_;
  std::vector<std::unique_ptr<ShardLabelerView>> views_;
  std::vector<std::unique_ptr<serve::TastiServer>> servers_;
};

}  // namespace tasti::shard

#endif  // TASTI_SHARD_SHARDED_SERVER_H_
