#ifndef TASTI_LABELER_COST_MODEL_H_
#define TASTI_LABELER_COST_MODEL_H_

/// \file cost_model.h
/// Per-invocation cost model for Table 1 of the paper.
///
/// The paper compares three target labelers on the night-street
/// aggregation query: a human labeler (dollars), Mask R-CNN (seconds at
/// ~3 fps), and SSD (seconds, ~50x faster but 2x less accurate). Costs for
/// a query are (labeler invocations) x (unit cost) plus, for TASTI's
/// all-costs row, the embedding/index construction charges.

#include <cstddef>
#include <string>

namespace tasti::labeler {

/// The three target labelers of Table 1.
enum class LabelerKind { kHuman, kMaskRCnn, kSsd };

std::string LabelerKindName(LabelerKind kind);

/// Unit costs. Derived from the paper: exhaustive Mask R-CNN over
/// night-street (~973k frames) costs 324,362 s => 1/3 s per frame;
/// exhaustive human labeling costs $68,116 => $0.07 per frame; exhaustive
/// SSD costs 6,487 s => ~6.7 ms per frame. The embedding DNN runs at
/// 12,000 fps (paper Section 3.4).
struct CostModel {
  double human_dollars_per_label = 0.07;
  double mask_rcnn_seconds_per_label = 1.0 / 3.0;
  double ssd_seconds_per_label = 1.0 / 150.0;
  double embedding_seconds_per_record = 1.0 / 12000.0;

  /// Cost of `invocations` target labeler calls, in the labeler's native
  /// unit (dollars for human, seconds otherwise).
  double LabelCost(LabelerKind kind, size_t invocations) const;

  /// Native unit suffix for display ("$" handled by caller; "s" otherwise).
  static bool IsDollars(LabelerKind kind) { return kind == LabelerKind::kHuman; }
};

}  // namespace tasti::labeler

#endif  // TASTI_LABELER_COST_MODEL_H_
