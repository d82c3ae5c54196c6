#include "serve/snapshot.h"

#include <utility>


namespace tasti::serve {

core::IndexView IndexSnapshot::View() const {
  core::IndexView view;
  view.num_records = num_records;
  view.num_representatives = rep_record_ids.size();
  view.k = topk.k;
  view.topk = &topk;
  view.rep_labels = &rep_labels;
  view.rep_label_valid = &rep_label_valid;
  view.num_failed_representatives = num_failed_representatives;
  return view;
}

IndexSnapshot IndexSnapshot::FromIndex(const core::TastiIndex& index,
                                       uint64_t epoch) {
  IndexSnapshot snapshot;
  snapshot.epoch = epoch;
  snapshot.num_records = index.num_records();
  snapshot.rep_record_ids = index.rep_record_ids();
  snapshot.rep_labels = index.rep_labels();
  snapshot.rep_label_valid = index.rep_label_valid();
  snapshot.num_failed_representatives = index.num_failed_representatives();
  snapshot.topk = index.topk();
  return snapshot;
}

IndexSnapshot IndexSnapshot::FromIndexAndTakeDelta(core::TastiIndex* index,
                                                   uint64_t epoch,
                                                   uint64_t parent_epoch) {
  IndexSnapshot snapshot = FromIndex(*index, epoch);
  core::IndexDelta delta = index->TakeDelta();
  if (delta.full || parent_epoch == 0) {
    snapshot.delta_full = true;
    return snapshot;
  }
  snapshot.parent_epoch = parent_epoch;
  snapshot.delta_full = false;
  snapshot.parent_num_records = delta.base_num_records;
  snapshot.parent_num_representatives = delta.base_num_representatives;
  snapshot.dirty_rows = std::move(delta.dirty_rows);
  snapshot.dirty_reps = std::move(delta.dirty_reps);
  return snapshot;
}

Status IndexSnapshot::CheckConsistent() const {
  const size_t reps = rep_record_ids.size();
  if (rep_labels.size() != reps || rep_label_valid.size() != reps) {
    return Status::Internal("snapshot: representative arrays misaligned");
  }
  if (topk.num_records != num_records ||
      topk.rep_ids.size() != num_records * topk.k ||
      topk.distances.size() != num_records * topk.k) {
    return Status::Internal("snapshot: top-k shape mismatch");
  }
  for (uint32_t rep_id : topk.rep_ids) {
    if (rep_id >= reps) {
      return Status::Internal("snapshot: min-k neighbor beyond rep count");
    }
  }
  size_t failed = 0;
  for (uint8_t valid : rep_label_valid) {
    if (valid == 0) ++failed;
  }
  if (failed != num_failed_representatives) {
    return Status::Internal("snapshot: failed-rep count mismatch");
  }
  if (!delta_full) {
    if (parent_epoch == 0 || parent_epoch >= epoch) {
      return Status::Internal("snapshot: delta parent epoch out of order");
    }
    if (parent_num_records > num_records ||
        parent_num_representatives > rep_record_ids.size()) {
      return Status::Internal("snapshot: delta baselines exceed current size");
    }
    for (uint32_t row : dirty_rows) {
      if (row >= parent_num_records) {
        return Status::Internal("snapshot: dirty row beyond parent records");
      }
    }
    for (uint32_t rep : dirty_reps) {
      if (rep >= parent_num_representatives) {
        return Status::Internal("snapshot: dirty rep beyond parent reps");
      }
    }
  }
  return Status::OK();
}

void EpochManager::Publish(IndexSnapshot snapshot) {
  // The live-snapshot counter is owned by a shared_ptr so a retired
  // epoch's deleter can decrement it even if it outlives the manager.
  std::shared_ptr<std::atomic<size_t>> live = live_snapshots_;
  live->fetch_add(1, std::memory_order_acq_rel);
  auto* raw = new IndexSnapshot(std::move(snapshot));
  std::shared_ptr<const IndexSnapshot> next(
      raw, [live](const IndexSnapshot* s) {
        live->fetch_sub(1, std::memory_order_acq_rel);
        delete s;
      });

  std::lock_guard<std::mutex> lock(mu_);
  TASTI_CHECK(current_ == nullptr || next->epoch > current_->epoch,
              "EpochManager::Publish requires a strictly newer epoch");
  current_ = std::move(next);
  published_.fetch_add(1, std::memory_order_relaxed);
}

void EpochManager::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  current_.reset();
}

std::shared_ptr<const IndexSnapshot> EpochManager::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t EpochManager::current_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_ == nullptr ? 0 : current_->epoch;
}

}  // namespace tasti::serve
