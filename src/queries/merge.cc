#include "queries/merge.h"

#include <algorithm>
#include <queue>

#include "util/status.h"

namespace tasti::queries {

namespace {

size_t TotalRecords(const std::vector<size_t>& shard_sizes) {
  size_t total = 0;
  for (size_t n : shard_sizes) total += n;
  return total;
}

/// Maps a shard-local selection to global ids and sorts it.
std::vector<size_t> ToGlobalSorted(const std::vector<size_t>& local,
                                   size_t offset) {
  std::vector<size_t> global;
  global.reserve(local.size());
  for (size_t id : local) global.push_back(offset + id);
  std::sort(global.begin(), global.end());
  return global;
}

/// K-way heap merge of per-shard sorted id lists into one sorted list.
/// Shard ranges are disjoint but interleaved lists (after appends) are
/// handled correctly regardless.
std::vector<size_t> HeapUnion(std::vector<std::vector<size_t>> lists) {
  // (next value, list index, cursor) min-heap.
  using Entry = std::tuple<size_t, size_t, size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  size_t total = 0;
  for (size_t l = 0; l < lists.size(); ++l) {
    total += lists[l].size();
    if (!lists[l].empty()) heap.emplace(lists[l][0], l, 0);
  }
  std::vector<size_t> merged;
  merged.reserve(total);
  while (!heap.empty()) {
    const auto [value, list, cursor] = heap.top();
    heap.pop();
    merged.push_back(value);
    if (cursor + 1 < lists[list].size()) {
      heap.emplace(lists[list][cursor + 1], list, cursor + 1);
    }
  }
  return merged;
}

/// Counts absent shards and the record fraction the present ones cover;
/// fills `quality` (if given) and returns the number of absent shards.
size_t FillQuality(const std::vector<size_t>& shard_sizes,
                   const std::vector<bool>& present, GatherQuality* quality) {
  TASTI_CHECK(present.size() == shard_sizes.size(),
              "merge: present / shard_sizes mismatch");
  size_t absent = 0;
  size_t covered_records = 0;
  for (size_t s = 0; s < present.size(); ++s) {
    if (present[s]) {
      covered_records += shard_sizes[s];
    } else {
      ++absent;
    }
  }
  const size_t total = TotalRecords(shard_sizes);
  const double covered =
      total > 0 ? static_cast<double>(covered_records) /
                      static_cast<double>(total)
                : (absent == 0 ? 1.0 : 0.0);
  if (quality != nullptr) {
    quality->shards = present.size();
    quality->absent = absent;
    quality->covered_fraction = covered;
    quality->effective_target = 0.0;
  }
  return absent;
}

/// Running [min(est - hw), max(est + hw)] over the shards seen so far.
struct Envelope {
  bool empty = true;
  double lo = 0.0;
  double hi = 0.0;

  void Add(double estimate, double half_width) {
    const double l = estimate - half_width;
    const double h = estimate + half_width;
    if (empty || l < lo) lo = l;
    if (empty || h > hi) hi = h;
    empty = false;
  }
  /// Half the envelope width, floored so a missing-mass term strictly
  /// widens the interval.
  double HalfWidth() const {
    return empty ? kEnvelopeFloor : std::max((hi - lo) / 2.0, kEnvelopeFloor);
  }

  static constexpr double kEnvelopeFloor = 1e-6;
};

}  // namespace

double ShardConfidence(double confidence, size_t num_shards) {
  if (num_shards <= 1) return confidence;
  return 1.0 - (1.0 - confidence) / static_cast<double>(num_shards);
}

std::vector<size_t> SplitBudget(size_t budget,
                                const std::vector<size_t>& shard_sizes) {
  const size_t total = TotalRecords(shard_sizes);
  std::vector<size_t> split(shard_sizes.size(), 0);
  if (total == 0) return split;
  for (size_t s = 0; s < shard_sizes.size(); ++s) {
    if (shard_sizes[s] == 0) continue;
    // Ceil so the merged spend never undershoots the requested budget;
    // every non-empty shard gets at least one call.
    split[s] = std::max<size_t>(
        1, (budget * shard_sizes[s] + total - 1) / total);
  }
  return split;
}

AggregationResult MergeAggregates(const std::vector<AggregationResult>& parts,
                                  const std::vector<size_t>& shard_sizes,
                                  const std::vector<bool>& present,
                                  GatherQuality* quality) {
  TASTI_CHECK(!parts.empty(), "MergeAggregates needs at least one partial");
  TASTI_CHECK(parts.size() == shard_sizes.size(),
              "MergeAggregates: partials / shard_sizes mismatch");
  const size_t absent = FillQuality(shard_sizes, present, quality);
  const double total = static_cast<double>(TotalRecords(shard_sizes));
  AggregationResult merged;
  merged.converged = true;
  double covered = 0.0;
  Envelope envelope;
  for (size_t s = 0; s < parts.size(); ++s) {
    if (!present[s]) continue;
    const double w =
        total > 0 ? static_cast<double>(shard_sizes[s]) / total : 0.0;
    covered += w;
    merged.estimate += w * parts[s].estimate;
    merged.half_width += w * parts[s].half_width;
    merged.proxy_correlation += w * parts[s].proxy_correlation;
    merged.labeler_invocations += parts[s].labeler_invocations;
    merged.failed_oracle_calls += parts[s].failed_oracle_calls;
    merged.substituted_samples += parts[s].substituted_samples;
    if (shard_sizes[s] == 0) continue;
    if (!parts[s].converged) merged.converged = false;
    envelope.Add(parts[s].estimate, parts[s].half_width);
  }
  if (absent == 0) return merged;

  TASTI_CHECK(!envelope.empty,
              "MergeAggregates: no non-empty shard is present");
  // Missing mass is assumed to lie inside the present-shard envelope: it
  // contributes the envelope midpoint to the estimate and half the
  // envelope width (floored, so the interval strictly widens) to the
  // half width. It never claims convergence.
  const double missing = std::max(0.0, 1.0 - covered);
  merged.estimate += missing * ((envelope.lo + envelope.hi) / 2.0);
  merged.half_width += missing * envelope.HalfWidth();
  merged.converged = false;
  return merged;
}

PredicateAggregationResult MergePredicateAggregates(
    const std::vector<PredicateAggregationResult>& parts,
    const std::vector<size_t>& shard_sizes, const std::vector<bool>& present,
    GatherQuality* quality) {
  TASTI_CHECK(!parts.empty(),
              "MergePredicateAggregates needs at least one partial");
  TASTI_CHECK(parts.size() == shard_sizes.size(),
              "MergePredicateAggregates: partials / shard_sizes mismatch");
  const size_t absent = FillQuality(shard_sizes, present, quality);
  TASTI_CHECK(absent < parts.size(),
              "MergePredicateAggregates: every shard is absent");
  PredicateAggregationResult merged;
  merged.converged = true;
  double mass = 0.0;
  double covered_records = 0.0;
  Envelope envelope;
  for (size_t s = 0; s < parts.size(); ++s) {
    if (!present[s]) continue;
    covered_records += static_cast<double>(shard_sizes[s]);
    merged.labeler_invocations += parts[s].labeler_invocations;
    merged.failed_oracle_calls += parts[s].failed_oracle_calls;
    merged.sample_matches += parts[s].sample_matches;
    if (shard_sizes[s] > 0 && !parts[s].converged) merged.converged = false;
    if (parts[s].sample_matches == 0 || parts[s].labeler_invocations == 0) {
      continue;  // no observed match mass: nothing to contribute
    }
    // Estimated match count of the shard: records times the sample match
    // rate (exact under uniform sampling, an estimate under importance
    // sampling — DESIGN.md §14).
    const double w = static_cast<double>(shard_sizes[s]) *
                     static_cast<double>(parts[s].sample_matches) /
                     static_cast<double>(parts[s].labeler_invocations);
    mass += w;
    merged.estimate += w * parts[s].estimate;
    merged.half_width += w * parts[s].half_width;
    envelope.Add(parts[s].estimate, parts[s].half_width);
  }
  if (mass > 0.0) {
    merged.estimate /= mass;
    merged.half_width /= mass;
  } else {
    merged.converged = false;
  }
  if (absent == 0) return merged;

  // The present shards' match mass is all the evidence there is: keep
  // their Hajek estimate and widen by the missing record fraction.
  const double total = static_cast<double>(TotalRecords(shard_sizes));
  const double missing =
      total > 0 ? std::max(0.0, 1.0 - covered_records / total) : 0.0;
  merged.half_width += missing * envelope.HalfWidth();
  merged.converged = false;
  return merged;
}

SupgResult MergeSupg(const std::vector<SupgResult>& parts,
                     const std::vector<size_t>& shard_offsets,
                     const std::vector<size_t>& shard_sizes,
                     const std::vector<bool>& present, double recall_target,
                     GatherQuality* quality) {
  TASTI_CHECK(!parts.empty(), "MergeSupg needs at least one partial");
  TASTI_CHECK(parts.size() == shard_offsets.size(),
              "MergeSupg: partials / shard_offsets mismatch");
  const size_t absent = FillQuality(shard_sizes, present, quality);
  if (quality != nullptr && recall_target > 0.0) {
    quality->effective_target = quality->covered_fraction * recall_target;
  }
  TASTI_CHECK(absent < parts.size(), "MergeSupg: every shard is absent");
  SupgResult merged;
  std::vector<std::vector<size_t>> mapped;
  mapped.reserve(parts.size());
  bool first = true;
  for (size_t s = 0; s < parts.size(); ++s) {
    if (!present[s]) continue;
    mapped.push_back(ToGlobalSorted(parts[s].selected, shard_offsets[s]));
    merged.labeler_invocations += parts[s].labeler_invocations;
    merged.sample_positives += parts[s].sample_positives;
    merged.failed_oracle_calls += parts[s].failed_oracle_calls;
    merged.requested_samples += parts[s].requested_samples;
    merged.achieved_samples += parts[s].achieved_samples;
    if (first || parts[s].threshold < merged.threshold) {
      merged.threshold = parts[s].threshold;
      first = false;
    }
  }
  merged.selected = HeapUnion(std::move(mapped));
  return merged;
}

ThresholdSelectResult MergeThresholdSelects(
    const std::vector<ThresholdSelectResult>& parts,
    const std::vector<size_t>& shard_offsets,
    const std::vector<size_t>& shard_sizes, const std::vector<bool>& present,
    GatherQuality* quality) {
  TASTI_CHECK(!parts.empty(),
              "MergeThresholdSelects needs at least one partial");
  TASTI_CHECK(parts.size() == shard_offsets.size(),
              "MergeThresholdSelects: partials / shard_offsets mismatch");
  const size_t absent = FillQuality(shard_sizes, present, quality);
  TASTI_CHECK(absent < parts.size(),
              "MergeThresholdSelects: every shard is absent");
  ThresholdSelectResult merged;
  std::vector<std::vector<size_t>> mapped;
  mapped.reserve(parts.size());
  double threshold_sum = 0.0;
  double f1_sum = 0.0;
  for (size_t s = 0; s < parts.size(); ++s) {
    if (!present[s]) continue;
    mapped.push_back(ToGlobalSorted(parts[s].selected, shard_offsets[s]));
    merged.labeler_invocations += parts[s].labeler_invocations;
    merged.failed_oracle_calls += parts[s].failed_oracle_calls;
    const double w = static_cast<double>(parts[s].labeler_invocations);
    threshold_sum += w * parts[s].threshold;
    f1_sum += w * parts[s].validation_f1;
  }
  if (merged.labeler_invocations > 0) {
    const double total = static_cast<double>(merged.labeler_invocations);
    merged.threshold = threshold_sum / total;
    merged.validation_f1 = f1_sum / total;
  }
  merged.selected = HeapUnion(std::move(mapped));
  return merged;
}

LimitResult MergeLimits(const std::vector<LimitResult>& parts,
                        const std::vector<size_t>& shard_offsets,
                        const std::vector<size_t>& shard_sizes,
                        const std::vector<bool>& present, size_t want,
                        GatherQuality* quality) {
  TASTI_CHECK(parts.size() <= shard_offsets.size() &&
                  parts.size() <= present.size(),
              "MergeLimits: more partials than shards");
  FillQuality(shard_sizes, present, quality);
  LimitResult merged;
  // (per-shard rank, shard) min-heap: interleave found records by the
  // order their shard examined them, so the merged list prefers each
  // shard's highest-proxy matches.
  using Entry = std::pair<size_t, size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (size_t s = 0; s < parts.size(); ++s) {
    if (!present[s]) continue;
    merged.labeler_invocations += parts[s].labeler_invocations;
    merged.failed_oracle_calls += parts[s].failed_oracle_calls;
    if (!parts[s].found.empty()) heap.emplace(0, s);
  }
  while (!heap.empty() && merged.found.size() < want) {
    const auto [rank, shard] = heap.top();
    heap.pop();
    merged.found.push_back(shard_offsets[shard] + parts[shard].found[rank]);
    if (rank + 1 < parts[shard].found.size()) heap.emplace(rank + 1, shard);
  }
  merged.satisfied = merged.found.size() >= want;
  return merged;
}

}  // namespace tasti::queries
