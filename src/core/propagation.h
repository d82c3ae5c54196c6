#ifndef TASTI_CORE_PROPAGATION_H_
#define TASTI_CORE_PROPAGATION_H_

/// \file propagation.h
/// Score propagation (paper Section 4.3): exact scores on cluster
/// representatives are propagated to unannotated records via the stored
/// min-k distances — inverse-distance-weighted mean for numeric scores,
/// distance-weighted majority vote for categorical scores, and the
/// k=1-with-distance-tie-breaking variant used for limit queries
/// (Section 6.3).
///
/// Every function takes a core::IndexView, so propagation runs identically
/// against the mutable TastiIndex and against immutable serving snapshots
/// (serve::IndexSnapshot); the TastiIndex overloads are thin delegators.
///
/// Incremental propagation: a record's propagated score depends only on
/// its own top-k row and the exact scores of the representatives in it.
/// When cracking changes the top-k lists of a known set of "dirty" rows
/// (cluster::UpdateTopKWithNewReps reports them), PropagateIncremental
/// recomputes only those rows — running the identical per-row arithmetic
/// the full pass would, so results are bit-identical to recomputing from
/// scratch. PropagationState carries everything needed to resume.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/index.h"
#include "core/scorer.h"

namespace tasti::core {

/// How representative scores are propagated to unannotated records.
enum class PropagationMode {
  /// Inverse-distance-weighted mean over the k nearest representatives.
  /// This is the paper's default for numeric scores and its smoothed
  /// probability estimate for 0/1 predicates (Sections 4.1, 4.3).
  kNumeric,
  /// Distance-weighted majority vote (hard categorical outputs).
  kCategorical,
  /// k = 1 with distance tie-breaking (limit-query ranking, Section 6.3).
  kLimit,
};

/// Propagation parameters.
struct PropagationOptions {
  /// Neighbors used; clamped to the index's stored k. 0 means "use all
  /// stored neighbors".
  size_t k = 0;
  /// Distance floor: weights are 1 / (distance + epsilon)^power, so a
  /// record that is itself a representative is dominated by its own exact
  /// score.
  float epsilon = 1e-6f;
  /// Exponent of the inverse-distance weight. Higher powers sharpen the
  /// estimate toward the nearest representative, improving tail accuracy
  /// on rare records at a slight cost in smoothing.
  float weight_power = 2.0f;
};

/// Evaluates the scorer on every representative (exact scores).
std::vector<double> RepresentativeScores(const IndexView& view,
                                         const Scorer& scorer);
inline std::vector<double> RepresentativeScores(const TastiIndex& index,
                                                const Scorer& scorer) {
  return RepresentativeScores(index.View(), scorer);
}

/// Inverse-distance-weighted mean propagation for numeric scores.
/// `rep_scores` must align with view.rep_labels.
std::vector<double> PropagateNumeric(const IndexView& view,
                                     const std::vector<double>& rep_scores,
                                     const PropagationOptions& options = {});
inline std::vector<double> PropagateNumeric(
    const TastiIndex& index, const std::vector<double>& rep_scores,
    const PropagationOptions& options = {}) {
  return PropagateNumeric(index.View(), rep_scores, options);
}

/// Distance-weighted majority vote for categorical scores: each record
/// gets the score value with the largest total weight among its k nearest
/// representatives.
std::vector<double> PropagateCategorical(const IndexView& view,
                                         const std::vector<double>& rep_scores,
                                         const PropagationOptions& options = {});
inline std::vector<double> PropagateCategorical(
    const TastiIndex& index, const std::vector<double>& rep_scores,
    const PropagationOptions& options = {}) {
  return PropagateCategorical(index.View(), rep_scores, options);
}

/// Limit-query propagation: records inherit the best score among their
/// stored min-k representatives (rare events often sit at cluster
/// boundaries next to a positive representative), plus a strictly-less-
/// than-unit bonus decreasing in distance to that representative, so
/// sorting descending ranks by score first and proximity second. Scores
/// must be integer-spaced for the tie-break to be order-preserving.
/// `use_best_of_k = false` restricts to the single nearest representative
/// (the paper's literal "k = 1 with ties broken by distance").
std::vector<double> PropagateLimit(const IndexView& view,
                                   const std::vector<double>& rep_scores,
                                   bool use_best_of_k = true);
inline std::vector<double> PropagateLimit(const TastiIndex& index,
                                          const std::vector<double>& rep_scores,
                                          bool use_best_of_k = true) {
  return PropagateLimit(index.View(), rep_scores, use_best_of_k);
}

/// Resumable propagation output: everything a later epoch needs to update
/// proxy scores incrementally instead of recomputing all N records.
struct PropagationState {
  PropagationMode mode = PropagationMode::kNumeric;
  PropagationOptions options;
  bool use_best_of_k = true;  ///< kLimit only (see PropagateLimit)

  /// Exact scorer outputs per representative, 0.0 placeholders for failed
  /// (invalid) representatives — same convention as RepresentativeScores.
  std::vector<double> rep_scores;
  /// Propagated proxy score per record; what queries consume.
  std::vector<double> scores;
  /// Numeric-mode per-record partials (empty for other modes): the
  /// inverse-distance weight total and weighted score total whose quotient
  /// is scores[i]. Kept alongside the quotient so a dirty-row recompute is
  /// self-contained and auditable (equivalence tests check them too).
  std::vector<double> weight_sum;
  std::vector<double> score_sum;

  /// Heap footprint estimate, for score-cache memory bounding.
  size_t ApproxBytes() const {
    return (rep_scores.capacity() + scores.capacity() +
            weight_sum.capacity() + score_sum.capacity()) *
               sizeof(double) +
           sizeof(PropagationState);
  }
};

/// Full propagation pass filling `state->scores` from `state->rep_scores`
/// per `state->mode`. Bit-identical to the matching plain Propagate* call;
/// mode, options, use_best_of_k, and rep_scores must be set beforehand.
void PropagateFull(const IndexView& view, PropagationState* state);

/// Incrementally updates `state->rep_scores` (computed against a parent
/// epoch) to match `view`: scores representatives appended since then plus
/// the `dirty_reps` positions whose label or validity changed (repaired
/// reps). Bit-identical to RepresentativeScores(view, scorer). Returns the
/// number of representatives scored.
size_t UpdateRepresentativeScores(const IndexView& view, const Scorer& scorer,
                                  const std::vector<uint32_t>& dirty_reps,
                                  PropagationState* state);

/// Incrementally updates `state->scores` (a completed pass over a parent
/// epoch) to match `view`: recomputes exactly the `dirty_rows` plus any
/// records appended since the state was built, running the same per-row
/// arithmetic as PropagateFull — so the result is bit-identical to a full
/// pass over `view`. state->rep_scores must already match `view` (see
/// UpdateRepresentativeScores). Returns the number of rows recomputed.
size_t PropagateIncremental(const IndexView& view,
                            const std::vector<uint32_t>& dirty_rows,
                            PropagationState* state);

}  // namespace tasti::core

#endif  // TASTI_CORE_PROPAGATION_H_
