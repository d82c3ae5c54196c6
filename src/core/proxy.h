#ifndef TASTI_CORE_PROXY_H_
#define TASTI_CORE_PROXY_H_

/// \file proxy.h
/// One-call generation of query-specific proxy scores from a TASTI index
/// (paper Figure 1c): evaluate the scorer exactly on the representatives,
/// then propagate.

#include <vector>

#include "core/index.h"
#include "core/propagation.h"
#include "core/scorer.h"

namespace tasti::core {

// PropagationMode lives in propagation.h (included above) next to the
// propagation passes it selects between.

/// Generates proxy scores for every record: ComputeProxyState's scores,
/// without the resumable state. The IndexView overload lets query serving
/// compute proxies from immutable snapshots without touching the live
/// index.
std::vector<double> ComputeProxyScores(const IndexView& view,
                                       const Scorer& scorer,
                                       PropagationMode mode = PropagationMode::kNumeric,
                                       const PropagationOptions& options = {});
std::vector<double> ComputeProxyScores(const TastiIndex& index,
                                       const Scorer& scorer,
                                       PropagationMode mode = PropagationMode::kNumeric,
                                       const PropagationOptions& options = {});

/// Full proxy computation into a resumable PropagationState: evaluates the
/// scorer on the representatives and runs the full propagation pass
/// (best-of-k limit ranking). The state can then seed UpdateProxyState on
/// a later epoch. The two steps run under the `query.proxy.rep_scores` and
/// `query.proxy.propagate` spans, which the QueryLog reads as the query's
/// rep_score and propagation phases (obs::PhaseTimesFromSpans).
void ComputeProxyState(const IndexView& view, const Scorer& scorer,
                       PropagationMode mode, const PropagationOptions& options,
                       PropagationState* state);

/// Incrementally advances a parent-epoch PropagationState to `view`:
/// re-scores appended and `dirty_reps` representatives, then recomputes
/// the `dirty_rows` plus appended records. Bit-identical to
/// ComputeProxyState over `view` from scratch. Returns the number of
/// record rows recomputed. Spans: `query.proxy.rep_scores_delta`,
/// `query.proxy.propagate_delta`.
size_t UpdateProxyState(const IndexView& view, const Scorer& scorer,
                        const std::vector<uint32_t>& dirty_rows,
                        const std::vector<uint32_t>& dirty_reps,
                        PropagationState* state);

/// Exact scores for every record via a ground-truth labeler — used by the
/// evaluation harness to measure proxy quality, never by query processing.
std::vector<double> ExactScores(const data::Dataset& dataset,
                                const Scorer& scorer);

}  // namespace tasti::core

#endif  // TASTI_CORE_PROXY_H_
