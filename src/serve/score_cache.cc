#include "serve/score_cache.h"

#include <utility>

#include "obs/trace.h"
#include "util/status.h"

namespace tasti::serve {

namespace {

// Byte bound over resident PropagationStates (approximate); the most
// recently used entry is never evicted, so one oversized state still
// serves its epoch.
constexpr size_t kMaxBytes = 256ull << 20;

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
    EvictLocked(key);
  }
  if (outcome != nullptr) {
    outcome->source = via_delta ? ProxySource::kDelta : ProxySource::kFull;
    outcome->delta_rows = via_delta ? recomputed : 0;
  }
  return shared;
}

void ScoreCache::EvictLocked(const std::string& keep) {
  auto over = [&] {
    return stats_.resident_bytes > kMaxBytes ||
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
}

ScoreCacheStats ScoreCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace tasti::serve
