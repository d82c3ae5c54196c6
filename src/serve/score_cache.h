#ifndef TASTI_SERVE_SCORE_CACHE_H_
#define TASTI_SERVE_SCORE_CACHE_H_

/// \file score_cache.h
/// Server-wide proxy-score cache with cross-epoch delta application.
///
/// Every entry is propagated with the default core::PropagationOptions, so
/// proxy scores are a pure function of (index epoch, scorer, propagation
/// mode) and the server caches them keyed by scorer fingerprint and epoch:
///  - same epoch, same scorer: a later query reuses the shared
///    PropagationState outright (hit); concurrent queries for the same key
///    wait on the first one's future instead of recomputing (shared).
///  - new epoch after a crack: the cache finds the parent epoch's entry,
///    copies its state (copy-on-write — the parent entry itself stays
///    immutable for readers still pinned to the old epoch), and advances
///    the copy via core::UpdateProxyState, recomputing only the snapshot's
///    dirty rows, appended records, and new/repaired representatives. The
///    result is bit-identical to a full recompute, so deterministic-mode
///    serving is unaffected by whether a delta or a full pass produced it.
///
/// Entries are bounded by bytes (256 MiB) and count with LRU eviction; an evicted
/// parent simply forces the next child epoch to a full compute. Repairs of
/// degraded representatives flow through the snapshot's dirty_reps, which
/// both re-scores the repaired reps and invalidates (recomputes) every
/// record row holding them — no stale degraded scores survive an epoch
/// transition. hit/miss/delta-row tallies are read through stats(), their
/// only copy.
///
/// The scorer fingerprint is Scorer::Name(); two scorer instances sharing
/// a name must be semantically identical (the same contract the server's
/// previous per-epoch proxy sharing relied on).

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/propagation.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "serve/snapshot.h"

namespace tasti::serve {

struct ScoreCacheOptions {
  /// Entry-count bound (completed entries; in-flight computes don't count).
  size_t max_entries = 64;
};

/// How a query's proxy scores were obtained.
enum class ProxySource {
  kFull,    ///< computed from scratch (cold key, or no usable parent)
  kDelta,   ///< derived from the parent epoch's entry via dirty rows
  kHit,     ///< completed entry for this exact (scorer, epoch)
  kShared,  ///< waited on another query's in-flight compute
};
const char* ProxySourceName(ProxySource source);

/// Monotonic tallies plus current residency. Copyable snapshot.
struct ScoreCacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;          ///< served a completed entry
  uint64_t shared_hits = 0;   ///< waited on an in-flight compute
  uint64_t delta_hits = 0;    ///< advanced a parent entry incrementally
  uint64_t full_computes = 0;
  uint64_t delta_rows = 0;    ///< record rows recomputed across delta hits
  uint64_t evictions = 0;
  uint64_t invalidations = 0; ///< entries dropped by Invalidate()
  size_t resident_bytes = 0;
  size_t resident_entries = 0;

  double hit_ratio() const {
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits + shared_hits + delta_hits) /
                     static_cast<double>(lookups);
  }
};

/// Thread-safe. Computation runs outside the cache mutex; only map and
/// accounting updates hold it.
class ScoreCache {
 public:
  explicit ScoreCache(ScoreCacheOptions options = {});

  struct Outcome {
    ProxySource source = ProxySource::kFull;
    size_t delta_rows = 0;  ///< rows recomputed (kDelta only)
  };

  /// Returns the PropagationState for (snapshot.epoch, scorer, mode),
  /// computing, delta-deriving, or reusing as described in the file
  /// comment. Only the call that does the work runs the proxy spans on its
  /// thread, so a query served by another query's compute reads zero proxy
  /// time — the server's attribution convention. `outcome` (may be null)
  /// reports how the scores were obtained.
  std::shared_ptr<const core::PropagationState> GetOrCompute(
      const IndexSnapshot& snapshot, const core::Scorer& scorer,
      core::PropagationMode mode, Outcome* outcome);

  /// Drops every completed entry (in-flight computes finish and are then
  /// subject to normal eviction). For tests and operational resets; normal
  /// epoch turnover needs no invalidation.
  void Invalidate();

  ScoreCacheStats stats() const;

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<const core::PropagationState>> future;
    bool ready = false;
    size_t bytes = 0;
    uint64_t last_used = 0;  ///< LRU clock stamp
  };

  static std::string Key(const core::Scorer& scorer,
                         core::PropagationMode mode, uint64_t epoch);
  /// Evicts least-recently-used completed entries until both bounds hold;
  /// never evicts `keep` (the entry being served). Caller holds mu_.
  void EvictLocked(const std::string& keep);

  const ScoreCacheOptions options_;
  mutable std::mutex mu_;
  uint64_t lru_clock_ = 0;
  ScoreCacheStats stats_;
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace tasti::serve

#endif  // TASTI_SERVE_SCORE_CACHE_H_
