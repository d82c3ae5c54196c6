#include "serve/score_cache.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace tasti::serve {

namespace {

void ExportLookup(ProxySource source, size_t delta_rows) {
  if (!obs::MetricsEnabled()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const hits =
      registry.counter("serve.score_cache.hits", "lookups");
  static obs::Counter* const shared =
      registry.counter("serve.score_cache.shared", "lookups");
  static obs::Counter* const deltas =
      registry.counter("serve.score_cache.delta_hits", "lookups");
  static obs::Counter* const full =
      registry.counter("serve.score_cache.full_computes", "lookups");
  static obs::Counter* const rows =
      registry.counter("serve.score_cache.delta_rows", "rows");
  static obs::Counter* const lookups =
      registry.counter("serve.score_cache.lookups", "lookups");
  lookups->Increment();  // hit-ratio denominator for live dashboards
  switch (source) {
    case ProxySource::kHit: hits->Increment(); break;
    case ProxySource::kShared: shared->Increment(); break;
    case ProxySource::kDelta:
      deltas->Increment();
      rows->Increment(delta_rows);
      break;
    case ProxySource::kFull: full->Increment(); break;
  }
}

void ExportResidency(size_t bytes, size_t entries) {
  if (!obs::MetricsEnabled()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Gauge* const bytes_gauge =
      registry.gauge("serve.score_cache.bytes", "bytes");
  static obs::Gauge* const entries_gauge =
      registry.gauge("serve.score_cache.entries", "entries");
  bytes_gauge->Set(static_cast<double>(bytes));
  entries_gauge->Set(static_cast<double>(entries));
}

void ExportEvictions(size_t count) {
  if (count == 0 || !obs::MetricsEnabled()) return;
  static obs::Counter* const evictions = obs::MetricsRegistry::Global().counter(
      "serve.score_cache.evictions", "entries");
  evictions->Increment(count);
}

}  // namespace

const char* ProxySourceName(ProxySource source) {
  switch (source) {
    case ProxySource::kFull: return "full";
    case ProxySource::kDelta: return "delta";
    case ProxySource::kHit: return "hit";
    case ProxySource::kShared: return "shared";
  }
  return "unknown";
}

ScoreCache::ScoreCache(ScoreCacheOptions options) : options_(options) {}

std::string ScoreCache::Key(const core::Scorer& scorer,
                            core::PropagationMode mode, uint64_t epoch) {
  return std::to_string(epoch) + "#" + scorer.Name() + "#" +
         std::to_string(static_cast<int>(mode));
}

std::shared_ptr<const core::PropagationState> ScoreCache::GetOrCompute(
    const IndexSnapshot& snapshot, const core::Scorer& scorer,
    core::PropagationMode mode, Outcome* outcome) {
  const std::string key = Key(scorer, mode, snapshot.epoch);
  std::promise<std::shared_ptr<const core::PropagationState>> promise;
  std::shared_future<std::shared_ptr<const core::PropagationState>> future;
  std::shared_future<std::shared_ptr<const core::PropagationState>>
      parent_future;
  bool compute = false;
  bool have_parent = false;
  ProxySource source = ProxySource::kFull;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.lookups;
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.last_used = ++lru_clock_;
      future = it->second.future;
      if (it->second.ready) {
        ++stats_.hits;
        source = ProxySource::kHit;
      } else {
        ++stats_.shared_hits;
        source = ProxySource::kShared;
      }
    } else {
      if (!snapshot.delta_full && snapshot.parent_epoch != 0) {
        auto pit = entries_.find(Key(scorer, mode, snapshot.parent_epoch));
        // Only a completed parent is usable: blocking on an in-flight
        // parent would chain compute latencies (and a full pass is the
        // same work the parent compute is doing anyway).
        if (pit != entries_.end() && pit->second.ready) {
          pit->second.last_used = ++lru_clock_;
          parent_future = pit->second.future;
          have_parent = true;
        }
      }
      future = promise.get_future().share();
      Entry entry;
      entry.future = future;
      entry.last_used = ++lru_clock_;
      entries_.emplace(key, std::move(entry));
      compute = true;
    }
  }

  if (!compute) {
    // The computing query is charged the proxy time; this one opens no
    // proxy span, so it reports zero.
    std::shared_ptr<const core::PropagationState> value = future.get();
    if (outcome != nullptr) {
      outcome->source = source;
      outcome->delta_rows = 0;
    }
    ExportLookup(source, 0);
    return value;
  }

  core::PropagationState state;
  size_t recomputed = 0;
  bool via_delta = false;
  try {
    std::shared_ptr<const core::PropagationState> parent;
    if (have_parent) parent = parent_future.get();  // ready: non-blocking
    if (parent != nullptr && parent->mode == mode &&
        parent->scores.size() == snapshot.parent_num_records &&
        parent->rep_scores.size() == snapshot.parent_num_representatives) {
      // Copy-on-write: the copy advances to this epoch, the parent entry
      // stays frozen for readers still pinned to the old snapshot.
      TASTI_SPAN("serve.score_cache.delta");
      state = *parent;
      recomputed = core::UpdateProxyState(snapshot.View(), scorer,
                                          snapshot.dirty_rows,
                                          snapshot.dirty_reps, &state);
      via_delta = true;
    } else {
      TASTI_SPAN("serve.score_cache.full");
      core::ComputeProxyState(snapshot.View(), scorer, mode, {}, &state);
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      entries_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }

  auto shared =
      std::make_shared<const core::PropagationState>(std::move(state));
  promise.set_value(shared);

  size_t resident_bytes = 0;
  size_t resident_entries = 0;
  size_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end() && !it->second.ready) {
      it->second.ready = true;
      it->second.bytes = shared->ApproxBytes();
      it->second.last_used = ++lru_clock_;
      stats_.resident_bytes += it->second.bytes;
      ++stats_.resident_entries;
    }
    if (via_delta) {
      ++stats_.delta_hits;
      stats_.delta_rows += recomputed;
    } else {
      ++stats_.full_computes;
    }
    const uint64_t evictions_before = stats_.evictions;
    EvictLocked(key);
    evicted = stats_.evictions - evictions_before;
    resident_bytes = stats_.resident_bytes;
    resident_entries = stats_.resident_entries;
  }
  ExportLookup(via_delta ? ProxySource::kDelta : ProxySource::kFull,
               recomputed);
  ExportEvictions(evicted);
  ExportResidency(resident_bytes, resident_entries);
  if (outcome != nullptr) {
    outcome->source = via_delta ? ProxySource::kDelta : ProxySource::kFull;
    outcome->delta_rows = via_delta ? recomputed : 0;
  }
  return shared;
}

void ScoreCache::EvictLocked(const std::string& keep) {
  auto over = [&] {
    return stats_.resident_bytes > options_.max_bytes ||
           stats_.resident_entries > options_.max_entries;
  };
  while (over()) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.ready || it->first == keep) continue;
      if (victim == entries_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == entries_.end()) break;  // nothing evictable left
    stats_.resident_bytes -= victim->second.bytes;
    --stats_.resident_entries;
    ++stats_.evictions;
    entries_.erase(victim);
  }
}

void ScoreCache::Invalidate() {
  size_t resident_bytes = 0;
  size_t resident_entries = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->second.ready) {
        stats_.resident_bytes -= it->second.bytes;
        --stats_.resident_entries;
        ++stats_.invalidations;
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
    resident_bytes = stats_.resident_bytes;
    resident_entries = stats_.resident_entries;
  }
  ExportResidency(resident_bytes, resident_entries);
}

ScoreCacheStats ScoreCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace tasti::serve
