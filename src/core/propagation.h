#ifndef TASTI_CORE_PROPAGATION_H_
#define TASTI_CORE_PROPAGATION_H_

/// \file propagation.h
/// Score propagation (paper Section 4.3): exact scores on cluster
/// representatives are propagated to unannotated records via the stored
/// min-k distances — an inverse-distance-weighted mean for every scorer,
/// and a best-of-k rank with distance tie-breaking for limit queries
/// (Section 6.3). One full pass (PropagateFull) and one incremental pass
/// (PropagateIncremental) share the per-row kernels; core::ComputeProxyScores
/// wraps the full pass.
///
/// Every function takes a core::IndexView, so propagation runs identically
/// against the mutable TastiIndex and against immutable serving snapshots
/// (serve::IndexSnapshot).
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
  /// probability estimate for 0/1 predicates (Sections 4.1, 4.3). It
  /// serves categorical scorers too: on the fig05 selection panels it beat
  /// a distance-weighted majority vote on false-positive rate everywhere
  /// (EXPERIMENTS.md).
  kNumeric,
  /// Limit-query ranking (Section 6.3): records inherit the best score
  /// among their stored min-k representatives (rare events often sit at
  /// cluster boundaries next to a positive representative), plus a
  /// strictly-less-than-unit bonus 0.999 / (1 + d) decreasing in distance
  /// to that representative, so sorting descending ranks by score first
  /// and proximity second. Scores must be integer-spaced for the
  /// tie-break to be order-preserving. Records with no valid neighbor
  /// rank at -1.
  kLimit,
};

/// Propagation parameters.
struct PropagationOptions {
  /// Neighbors used; clamped to the index's stored k. 0 means "use all
  /// stored neighbors".
  size_t k = 0;
  /// Exponent of the inverse-distance weight 1 / (distance + 1e-6)^power;
  /// the 1e-6 floor lets a record that is itself a representative be
  /// dominated by its own exact score. Higher powers sharpen the estimate
  /// toward the nearest representative, improving tail accuracy on rare
  /// records at a slight cost in smoothing.
  float weight_power = 2.0f;
};

/// Evaluates the scorer on every representative (exact scores).
std::vector<double> RepresentativeScores(const IndexView& view,
                                         const Scorer& scorer);
inline std::vector<double> RepresentativeScores(const TastiIndex& index,
                                                const Scorer& scorer) {
  return RepresentativeScores(index.View(), scorer);
}

/// Resumable propagation output: everything a later epoch needs to update
/// proxy scores incrementally instead of recomputing all N records.
struct PropagationState {
  PropagationMode mode = PropagationMode::kNumeric;
  PropagationOptions options;
  /// kLimit only: false restricts the rank to the single nearest
  /// representative (the paper's literal "k = 1 with ties broken by
  /// distance").
  bool use_best_of_k = true;

  /// Exact scorer outputs per representative, 0.0 placeholders for failed
  /// (invalid) representatives — same convention as RepresentativeScores.
  std::vector<double> rep_scores;
  /// Propagated proxy score per record; what queries consume.
  std::vector<double> scores;
  /// Numeric-mode per-record partials (empty for kLimit): the
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

/// Full propagation pass filling `state->scores` (and the numeric
/// partials) from `state->rep_scores` per `state->mode`. Mode, options,
/// use_best_of_k, and rep_scores must be set beforehand.
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
