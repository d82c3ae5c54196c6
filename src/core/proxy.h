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

/// Wall-time split of one ComputeProxyScores call, for per-query cost
/// attribution (obs::QueryLog).
struct ProxyTimings {
  double rep_score_seconds = 0.0;    ///< scorer over the representatives
  double propagation_seconds = 0.0;  ///< propagation to all records
};

/// Generates proxy scores for every record: ComputeProxyState's scores,
/// without the resumable state. When `timings` is non-null it receives the
/// wall time of the two phases. The IndexView overload lets query serving
/// compute proxies from immutable snapshots without touching the live
/// index.
std::vector<double> ComputeProxyScores(const IndexView& view,
                                       const Scorer& scorer,
                                       PropagationMode mode = PropagationMode::kNumeric,
                                       const PropagationOptions& options = {},
                                       ProxyTimings* timings = nullptr);
std::vector<double> ComputeProxyScores(const TastiIndex& index,
                                       const Scorer& scorer,
                                       PropagationMode mode = PropagationMode::kNumeric,
                                       const PropagationOptions& options = {},
                                       ProxyTimings* timings = nullptr);

/// Full proxy computation into a resumable PropagationState: evaluates the
/// scorer on the representatives and runs the full propagation pass
/// (best-of-k limit ranking). The state can then seed UpdateProxyState on
/// a later epoch.
void ComputeProxyState(const IndexView& view, const Scorer& scorer,
                       PropagationMode mode, const PropagationOptions& options,
                       PropagationState* state, ProxyTimings* timings = nullptr);

/// Incrementally advances a parent-epoch PropagationState to `view`:
/// re-scores appended and `dirty_reps` representatives, then recomputes
/// the `dirty_rows` plus appended records. Bit-identical to
/// ComputeProxyState over `view` from scratch. Returns the number of
/// record rows recomputed.
size_t UpdateProxyState(const IndexView& view, const Scorer& scorer,
                        const std::vector<uint32_t>& dirty_rows,
                        const std::vector<uint32_t>& dirty_reps,
                        PropagationState* state, ProxyTimings* timings = nullptr);

/// Exact scores for every record via a ground-truth labeler — used by the
/// evaluation harness to measure proxy quality, never by query processing.
std::vector<double> ExactScores(const data::Dataset& dataset,
                                const Scorer& scorer);

}  // namespace tasti::core

#endif  // TASTI_CORE_PROXY_H_
