#ifndef TASTI_QUERIES_MERGE_H_
#define TASTI_QUERIES_MERGE_H_

/// \file merge.h
/// Scatter-gather mergers: combine per-shard partial results of each query
/// kind into one dataset-level answer (src/shard/ serving).
///
/// Merge semantics per kind (DESIGN.md §14):
///  - Aggregation: the dataset mean is the record-count-weighted mean of
///    shard means, so estimate = sum(w_s * est_s) with w_s = n_s / N and
///    half_width = sum(w_s * hw_s) — if every shard hits an absolute error
///    target eps, the merged error is at most eps. Confidence composes by
///    union bound: run each shard at ShardConfidence(c, K) = 1 - (1-c)/K.
///  - Predicate aggregation: a self-normalized (Hajek) combine weighted by
///    each shard's estimated match mass; shards with no observed matches
///    contribute nothing.
///  - SUPG (recall / precision) and threshold selection: union of the
///    per-shard selected sets mapped to global ids. Recall of a union is
///    at least the per-shard minimum (each shard covers >= r of its own
///    matches), precision is the match-weighted mean of shard precisions,
///    so per-shard targets carry to the union; confidence again composes
///    by union bound.
///  - Limit: a rank-interleaving heap merge of per-shard found lists,
///    truncated to `want`. The router additionally early-terminates —
///    it stops querying shards once enough matches were found — which the
///    merger supports by accepting fewer partials than shards.
///
/// Every merger sums labeler invocations and failure counts, so the cost
/// ledger (paper metric) stays exact under sharding.
///
/// Degraded gather (DESIGN.md §15): every merger takes a `present` mask
/// over shards. Absent shards (deadline-expired or failed sub-queries)
/// contribute nothing, and the merged confidence is explicitly WIDENED to
/// account for the missing mass instead of silently pretending full
/// coverage:
///  - Aggregation kinds assume the absent shards' means lie inside the
///    cross-shard envelope observed on the present shards,
///    [min(est_s - hw_s), max(est_s + hw_s)]; the missing record mass
///    contributes the envelope midpoint to the estimate and half the
///    envelope width (epsilon-floored) to the half width. The interval
///    therefore widens monotonically as mass goes missing, and
///    converged = false whenever any shard is absent.
///  - Selection kinds union the present shards only; the reported
///    `effective_target` in GatherQuality is the per-shard target scaled
///    by the covered record fraction (recall-like guarantees dilute with
///    missing mass; precision-like ones carry unchanged).
/// An all-present mask is the full-coverage merge: no widening term is
/// added, so its arithmetic is exactly the per-kind rule above.

#include <cstddef>
#include <vector>

#include "queries/aggregation.h"
#include "queries/limit.h"
#include "queries/noguarantee.h"
#include "queries/predicate_aggregation.h"
#include "queries/supg.h"

namespace tasti::queries {

/// Per-shard success probability such that K sub-queries jointly meet
/// `confidence` by union bound: 1 - (1 - confidence) / num_shards.
double ShardConfidence(double confidence, size_t num_shards);

/// Splits a labeler budget across shards proportionally to shard size
/// (ceil, min 1 per non-empty shard), so the merged spend tracks the
/// single-index budget. Empty shards get 0.
std::vector<size_t> SplitBudget(size_t budget,
                                const std::vector<size_t>& shard_sizes);

/// How complete a gather was. Filled by every merger.
struct GatherQuality {
  /// Total shards the query was scattered to.
  size_t shards = 0;
  /// Shards absent from the gather (no usable partial).
  size_t absent = 0;
  /// Fraction of records behind present shards (1.0 = full coverage).
  double covered_fraction = 1.0;
  /// For recall-like selection targets: the target actually guaranteed
  /// over the full dataset, covered_fraction * per-shard target. 0 when
  /// not applicable.
  double effective_target = 0.0;
};

// Every merger reads `parts[s]` only where `present[s]`; `present` and
// `shard_sizes` (the record count behind each shard) cover every shard the
// query was scattered to. `quality` may be null.

/// Record-count-weighted merge of per-shard mean estimates. With shards
/// absent, the missing record mass widens the interval per the envelope
/// assumption above; at least one non-empty shard must be present.
AggregationResult MergeAggregates(const std::vector<AggregationResult>& parts,
                                  const std::vector<size_t>& shard_sizes,
                                  const std::vector<bool>& present,
                                  GatherQuality* quality);

/// Match-mass-weighted (self-normalized) merge of conditional means. The
/// weight of shard s is its estimated match count,
/// shard_sizes[s] * sample_matches / samples — exact when shards sample
/// uniformly, an estimate under importance sampling. Shards that observed
/// no matches get zero weight; if no shard observed a match the merged
/// estimate is 0 with converged = false. With shards absent, the half
/// width widens by the missing record fraction times half the
/// present-shard estimate envelope.
PredicateAggregationResult MergePredicateAggregates(
    const std::vector<PredicateAggregationResult>& parts,
    const std::vector<size_t>& shard_sizes, const std::vector<bool>& present,
    GatherQuality* quality);

/// Union of the present shards' SUPG selections mapped to global ids
/// (global = shard_offsets[s] + local). The merged `selected` is sorted;
/// `threshold` reports the per-shard minimum (the loosest admitted).
/// `recall_target` is the per-shard recall target when the query is
/// recall-constrained (scaled into quality->effective_target by
/// coverage), or 0 for precision mode, where the per-shard target carries
/// to the union unchanged.
SupgResult MergeSupg(const std::vector<SupgResult>& parts,
                     const std::vector<size_t>& shard_offsets,
                     const std::vector<size_t>& shard_sizes,
                     const std::vector<bool>& present, double recall_target,
                     GatherQuality* quality);

/// Union of the present shards' threshold selections mapped to global
/// ids. The merged threshold / validation F1 are invocation-weighted means
/// (informational — each shard enforces its own fit).
ThresholdSelectResult MergeThresholdSelects(
    const std::vector<ThresholdSelectResult>& parts,
    const std::vector<size_t>& shard_offsets,
    const std::vector<size_t>& shard_sizes, const std::vector<bool>& present,
    GatherQuality* quality);

/// Rank-interleaving heap merge of per-shard limit results: found records
/// are taken in order of their per-shard examination rank (position 0 of
/// every present shard first), mapped to global ids, truncated to `want`.
/// Accepts fewer partials than shards (the router's early stop skips the
/// rest; mark skipped shards present so they do not count as missing
/// mass). Absent shards contribute no candidates; satisfied = found >=
/// want.
LimitResult MergeLimits(const std::vector<LimitResult>& parts,
                        const std::vector<size_t>& shard_offsets,
                        const std::vector<size_t>& shard_sizes,
                        const std::vector<bool>& present, size_t want,
                        GatherQuality* quality);

}  // namespace tasti::queries

#endif  // TASTI_QUERIES_MERGE_H_
