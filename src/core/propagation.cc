#include "core/propagation.h"

#include <algorithm>
#include <cmath>

#include "util/status.h"
#include "util/thread_pool.h"

namespace tasti::core {

std::vector<double> RepresentativeScores(const IndexView& view,
                                         const Scorer& scorer) {
  std::vector<double> scores;
  scores.reserve(view.num_representatives);
  const auto& labels = *view.rep_labels;
  const bool degraded = view.num_failed_representatives > 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (degraded && (*view.rep_label_valid)[i] == 0) {
      // Placeholder score for a failed representative; propagation skips
      // it, so the value never reaches a proxy.
      scores.push_back(0.0);
      continue;
    }
    scores.push_back(scorer.Score(labels[i]));
  }
  return scores;
}

namespace {
// Distance floor of the inverse-distance weight.
constexpr float kEpsilon = 1e-6f;

// Validity mask for propagation, or nullptr when every representative is
// annotated (the common case keeps its branch-free inner loop).
const uint8_t* ValidityMask(const IndexView& view) {
  return view.num_failed_representatives > 0 ? view.rep_label_valid->data()
                                             : nullptr;
}

size_t EffectiveK(const IndexView& view, const PropagationOptions& options) {
  const size_t stored = view.k;
  if (options.k == 0) return stored;
  return std::min(options.k, stored);
}

// Inverse-distance weight 1 / (d + eps)^p. The propagation loops read one
// distance per stored neighbor, so std::pow dominated the pass; the common
// integer exponents take the cheap path. (glibc's pow is correctly rounded,
// so pow(x, 2) == x * x and pow(x, 1) == x bitwise — results are unchanged.)
inline double InverseDistanceWeight(double base, double power) {
  if (power == 2.0) return 1.0 / (base * base);
  if (power == 1.0) return 1.0 / base;
  return 1.0 / std::pow(base, power);
}

// ---- Per-row propagation kernels ----
//
// Both the full pass and PropagateIncremental evaluate records through
// these two helpers, in the same neighbor order, so a row recomputed
// incrementally is bit-identical to the same row in a fresh full pass.

// Inverse-distance-weighted mean of one record's k stored neighbors.
inline double NumericRow(const float* dist, const uint32_t* ids, size_t k,
                         const uint8_t* valid, const double* rep_scores,
                         const PropagationOptions& options, double* weight_out,
                         double* score_out) {
  double weight_sum = 0.0;
  double score_sum = 0.0;
  for (size_t j = 0; j < k; ++j) {
    if (valid != nullptr && valid[ids[j]] == 0) continue;
    const double w =
        InverseDistanceWeight(dist[j] + kEpsilon, options.weight_power);
    weight_sum += w;
    score_sum += w * rep_scores[ids[j]];
  }
  *weight_out = weight_sum;
  *score_out = score_sum;
  return weight_sum > 0.0 ? score_sum / weight_sum : 0.0;
}

// Best-scoring stored neighbor (ties by distance) plus a sub-unit
// proximity bonus; see PropagationMode::kLimit for the ranking rationale.
inline double LimitRow(const float* dist, const uint32_t* ids, size_t k,
                       const uint8_t* valid, const double* rep_scores,
                       bool use_best_of_k) {
  double best_score = 0.0;
  double best_dist = 0.0;
  bool any = false;
  const size_t neighbors = use_best_of_k ? k : 1;
  for (size_t j = 0; j < neighbors; ++j) {
    if (valid != nullptr && valid[ids[j]] == 0) continue;
    const double score = rep_scores[ids[j]];
    const double d = dist[j];
    if (!any || score > best_score ||
        (score == best_score && d < best_dist)) {
      any = true;
      best_score = score;
      best_dist = d;
    }
  }
  return any ? best_score + 0.999 / (1.0 + best_dist) : -1.0;
}

// Recomputes one record row into the state arrays. `k` is the effective
// neighbor count for numeric mode; limit mode always reads the full
// stored row.
inline void RecomputeRow(const IndexView& view, size_t i, size_t k,
                         const uint8_t* valid, PropagationState* state) {
  const auto& topk = *view.topk;
  const size_t stored_k = view.k;
  const float* dist = topk.distances.data() + i * stored_k;
  const uint32_t* ids = topk.rep_ids.data() + i * stored_k;
  const double* rep_scores = state->rep_scores.data();
  switch (state->mode) {
    case PropagationMode::kNumeric:
      state->scores[i] =
          NumericRow(dist, ids, k, valid, rep_scores, state->options,
                     &state->weight_sum[i], &state->score_sum[i]);
      break;
    case PropagationMode::kLimit:
      state->scores[i] =
          LimitRow(dist, ids, stored_k, valid, rep_scores,
                   state->use_best_of_k);
      break;
  }
}
}  // namespace

void PropagateFull(const IndexView& view, PropagationState* state) {
  TASTI_CHECK(state != nullptr, "PropagateFull requires a state");
  TASTI_CHECK(state->rep_scores.size() == view.num_representatives,
              "state rep_scores must align with representatives");
  const size_t n = view.num_records;
  if (state->mode == PropagationMode::kNumeric) {
    state->weight_sum.assign(n, 0.0);
    state->score_sum.assign(n, 0.0);
  } else {
    state->weight_sum.clear();
    state->score_sum.clear();
  }
  state->scores.assign(n, 0.0);
  const size_t k = EffectiveK(view, state->options);
  const uint8_t* valid = ValidityMask(view);
  ParallelFor(0, n, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) RecomputeRow(view, i, k, valid, state);
  }, 2048);
}

size_t UpdateRepresentativeScores(const IndexView& view, const Scorer& scorer,
                                  const std::vector<uint32_t>& dirty_reps,
                                  PropagationState* state) {
  TASTI_CHECK(state != nullptr, "UpdateRepresentativeScores requires a state");
  const size_t old_reps = state->rep_scores.size();
  TASTI_CHECK(view.num_representatives >= old_reps,
              "representative count went backwards across epochs");
  const auto& labels = *view.rep_labels;
  const bool degraded = view.num_failed_representatives > 0;
  auto score_rep = [&](size_t r) {
    // Same placeholder convention as RepresentativeScores: a failed rep
    // contributes 0.0 (skipped by propagation) and is never scored.
    if (degraded && (*view.rep_label_valid)[r] == 0) {
      state->rep_scores[r] = 0.0;
      return;
    }
    state->rep_scores[r] = scorer.Score(labels[r]);
  };
  size_t scored = 0;
  state->rep_scores.resize(view.num_representatives);
  for (size_t r = old_reps; r < view.num_representatives; ++r) {
    score_rep(r);
    ++scored;
  }
  for (uint32_t r : dirty_reps) {
    TASTI_CHECK(r < old_reps, "dirty rep beyond the parent epoch's reps");
    score_rep(r);
    ++scored;
  }
  return scored;
}

size_t PropagateIncremental(const IndexView& view,
                            const std::vector<uint32_t>& dirty_rows,
                            PropagationState* state) {
  TASTI_CHECK(state != nullptr, "PropagateIncremental requires a state");
  TASTI_CHECK(state->rep_scores.size() == view.num_representatives,
              "update rep_scores before PropagateIncremental");
  const size_t old_n = state->scores.size();
  const size_t n = view.num_records;
  TASTI_CHECK(n >= old_n, "record count went backwards across epochs");
  state->scores.resize(n, 0.0);
  if (state->mode == PropagationMode::kNumeric) {
    TASTI_CHECK(state->weight_sum.size() == old_n &&
                    state->score_sum.size() == old_n,
                "numeric partials must align with the parent pass");
    state->weight_sum.resize(n, 0.0);
    state->score_sum.resize(n, 0.0);
  }
  const size_t k = EffectiveK(view, state->options);
  const uint8_t* valid = ValidityMask(view);
  // Dirty rows (lists changed by cracking / repaired-rep membership) plus
  // every appended record; clean rows keep their parent-epoch values,
  // which a full pass would reproduce bit-for-bit.
  ParallelFor(0, dirty_rows.size(), [&](size_t lo, size_t hi) {
    for (size_t d = lo; d < hi; ++d) {
      const size_t i = dirty_rows[d];
      TASTI_CHECK(i < n, "dirty row out of range");
      RecomputeRow(view, i, k, valid, state);
    }
  }, 1024);
  ParallelFor(old_n, n, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) RecomputeRow(view, i, k, valid, state);
  }, 1024);
  return dirty_rows.size() + (n - old_n);
}

}  // namespace tasti::core
