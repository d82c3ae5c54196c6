#include "core/proxy.h"

#include <utility>

#include "obs/trace.h"
#include "util/status.h"

namespace tasti::core {

std::vector<double> ComputeProxyScores(const IndexView& view,
                                       const Scorer& scorer,
                                       PropagationMode mode,
                                       const PropagationOptions& options) {
  PropagationState state;
  ComputeProxyState(view, scorer, mode, options, &state);
  return std::move(state.scores);
}

std::vector<double> ComputeProxyScores(const TastiIndex& index,
                                       const Scorer& scorer,
                                       PropagationMode mode,
                                       const PropagationOptions& options) {
  return ComputeProxyScores(index.View(), scorer, mode, options);
}

void ComputeProxyState(const IndexView& view, const Scorer& scorer,
                       PropagationMode mode, const PropagationOptions& options,
                       PropagationState* state) {
  TASTI_CHECK(state != nullptr, "ComputeProxyState requires a state");
  state->mode = mode;
  state->options = options;
  state->use_best_of_k = true;
  {
    TASTI_SPAN("query.proxy.rep_scores");
    state->rep_scores = RepresentativeScores(view, scorer);
  }
  TASTI_SPAN("query.proxy.propagate");
  PropagateFull(view, state);
}

size_t UpdateProxyState(const IndexView& view, const Scorer& scorer,
                        const std::vector<uint32_t>& dirty_rows,
                        const std::vector<uint32_t>& dirty_reps,
                        PropagationState* state) {
  TASTI_CHECK(state != nullptr, "UpdateProxyState requires a state");
  {
    TASTI_SPAN("query.proxy.rep_scores_delta");
    UpdateRepresentativeScores(view, scorer, dirty_reps, state);
  }
  TASTI_SPAN("query.proxy.propagate_delta");
  return PropagateIncremental(view, dirty_rows, state);
}

std::vector<double> ExactScores(const data::Dataset& dataset,
                                const Scorer& scorer) {
  std::vector<double> out;
  out.reserve(dataset.size());
  for (const data::LabelerOutput& label : dataset.ground_truth) {
    out.push_back(scorer.Score(label));
  }
  return out;
}

}  // namespace tasti::core
