#include "labeler/cost_model.h"

#include "util/status.h"

namespace tasti::labeler {

std::string LabelerKindName(LabelerKind kind) {
  switch (kind) {
    case LabelerKind::kHuman:
      return "Human labeler";
    case LabelerKind::kMaskRCnn:
      return "Mask R-CNN";
    case LabelerKind::kSsd:
      return "SSD";
  }
  return "unknown";
}

double CostModel::LabelCost(LabelerKind kind, size_t invocations) const {
  const double n = static_cast<double>(invocations);
  switch (kind) {
    case LabelerKind::kHuman:
      return n * human_dollars_per_label;
    case LabelerKind::kMaskRCnn:
      return n * mask_rcnn_seconds_per_label;
    case LabelerKind::kSsd:
      return n * ssd_seconds_per_label;
  }
  TASTI_CHECK(false, "unknown labeler kind");
  return 0.0;
}

}  // namespace tasti::labeler
