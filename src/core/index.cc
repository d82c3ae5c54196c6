#include "core/index.h"

#include <algorithm>

#include "cluster/fpf.h"
#include "embed/pretrained.h"
#include "embed/triplet_trainer.h"
#include "obs/trace.h"
#include "util/status.h"

namespace tasti::core {

TastiIndex TastiIndex::Build(const data::Dataset& dataset,
                             labeler::FallibleLabeler* labeler,
                             const IndexOptions& options) {
  TASTI_CHECK(labeler != nullptr, "Build requires a labeler");
  TASTI_CHECK(labeler->num_records() == dataset.size(),
              "labeler/dataset record count mismatch");
  TASTI_CHECK(options.num_representatives > 0, "need at least one representative");
  TASTI_CHECK(options.k > 0, "k must be positive");

  // The build's phase seconds are its span totals; the scope also hides an
  // enclosing query's totals from the build's spans.
  obs::SpanTotals spans;
  TASTI_SPAN("index.build");

  TastiIndex index;
  index.options_ = options;
  Rng rng(options.seed);

  const embed::PretrainedEmbedder pretrained(dataset.feature_dim(),
                                             options.embedding_dim,
                                             options.seed ^ 0xA5A5A5A5ULL);

  // Step 1-2 (optional): triplet training on FPF-mined data.
  std::unique_ptr<embed::Embedder> trained;
  const embed::Embedder* embedder = &pretrained;
  if (options.use_triplet_training) {
    TASTI_SPAN("index.train");
    embed::TripletTrainOptions train_options;
    train_options.num_training_records = options.num_training_records;
    train_options.embedding_dim = options.embedding_dim;
    train_options.hidden_dim = options.hidden_dim;
    train_options.margin = options.margin;
    train_options.epochs = options.epochs;
    train_options.batch_size = options.batch_size;
    train_options.learning_rate = options.learning_rate;
    train_options.use_fpf_mining = options.use_fpf_mining;
    train_options.seed = options.seed * 1315423911ULL + 1;
    const size_t invocations_before = labeler->invocations();
    // Triplet mining needs some label for every sampled record; a failed
    // annotation falls back to the modality's neutral label (and is
    // counted) rather than aborting the build.
    labeler::BestEffortLabeler best_effort(
        labeler, labeler::DefaultLabelFor(dataset.modality));
    embed::TripletTrainResult trained_result = embed::TrainTripletEmbedder(
        dataset.features, pretrained, &best_effort, dataset.closeness,
        train_options);
    index.build_stats_.training_invocations =
        labeler->invocations() - invocations_before;
    index.build_stats_.training_label_failures = best_effort.failures();
    index.build_stats_.final_triplet_loss = trained_result.final_loss;
    trained = std::move(trained_result.embedder);
    embedder = trained.get();
  }

  // Step 3: embed every record; the index retains the embedder so new
  // records can be ingested later (streaming).
  {
    TASTI_SPAN("index.embed");
    index.embeddings_ = embedder->Embed(dataset.features);
    index.codes_ = nn::Int8Codes::Fit(index.embeddings_);
  }
  if (trained != nullptr) {
    index.embedder_ = std::move(trained);
  } else {
    index.embedder_ = std::make_unique<embed::PretrainedEmbedder>(
        dataset.feature_dim(), options.embedding_dim,
        options.seed ^ 0xA5A5A5A5ULL);
  }

  // Step 4: select cluster representatives.
  {
    TASTI_SPAN("index.select_reps");
    switch (options.rep_selection) {
      case RepSelectionPolicy::kFpfMixed:
        index.rep_record_ids_ = cluster::MixedFpfRandomSelection(
            index.embeddings_, options.num_representatives,
            options.random_rep_fraction, &rng);
        break;
      case RepSelectionPolicy::kRandom:
        index.rep_record_ids_ = cluster::RandomSelection(
            dataset.size(), options.num_representatives, &rng);
        break;
    }
  }

  // Annotate representatives with the target labeler. A representative
  // whose annotation fails permanently stays in the set but is marked
  // invalid; propagation excludes it and cracking can repair it later.
  {
    TASTI_SPAN("index.annotate_reps");
    const size_t invocations_before = labeler->invocations();
    index.rep_labels_.reserve(index.rep_record_ids_.size());
    index.rep_label_valid_.reserve(index.rep_record_ids_.size());
    // One batch, so a labeler that can overlap calls (the server's oracle
    // scheduler) does; the default runs them in order.
    std::vector<Result<data::LabelerOutput>> labels =
        labeler->TryLabelBatch(index.rep_record_ids_);
    for (Result<data::LabelerOutput>& label : labels) {
      if (label.ok()) {
        index.rep_labels_.push_back(std::move(label).value());
        index.rep_label_valid_.push_back(1);
      } else {
        index.rep_labels_.push_back(labeler::DefaultLabelFor(dataset.modality));
        index.rep_label_valid_.push_back(0);
        ++index.num_failed_reps_;
      }
    }
    index.build_stats_.rep_invocations =
        labeler->invocations() - invocations_before;
    index.build_stats_.failed_representatives = index.num_failed_reps_;
  }

  index.rep_embeddings_ = index.embeddings_.GatherRows(index.rep_record_ids_);
  index.is_rep_.assign(dataset.size(), 0);
  for (size_t record : index.rep_record_ids_) index.is_rep_[record] = 1;

  // Step 5: exact min-k distances.
  {
    TASTI_SPAN("index.min_k");
    index.topk_ = cluster::ComputeTopK(index.embeddings_,
                                       index.rep_embeddings_, options.k);
  }
  index.build_stats_.train_seconds = spans.Seconds("index.train");
  index.build_stats_.embed_seconds = spans.Seconds("index.embed");
  index.build_stats_.cluster_seconds = spans.Seconds("index.select_reps");
  index.build_stats_.distance_seconds = spans.Seconds("index.min_k");
  return index;
}

size_t TastiIndex::CrackFrom(const labeler::CachingFallibleLabeler& cache) {
  std::vector<size_t> records;
  std::vector<data::LabelerOutput> labels;
  records.reserve(cache.labeled_indices().size());
  labels.reserve(cache.labeled_indices().size());
  for (size_t record : cache.labeled_indices()) {
    if (is_rep_[record]) continue;
    records.push_back(record);
    labels.push_back(*cache.CachedLabel(record));
  }
  return CrackFromLabels(records, labels);
}

size_t TastiIndex::CrackFromLabels(const std::vector<size_t>& records,
                                   const std::vector<data::LabelerOutput>& labels) {
  TASTI_SPAN("index.crack");
  TASTI_CHECK(records.size() == labels.size(),
              "CrackFromLabels: records/labels size mismatch");
  // Collect the new representatives first so the embedding matrix grows
  // once, not per record. Marking while collecting keeps a record listed
  // twice in one batch from becoming two representatives.
  std::vector<size_t> additions;
  std::vector<size_t> addition_pos;
  for (size_t i = 0; i < records.size(); ++i) {
    TASTI_CHECK(records[i] < num_records(),
                "CrackFromLabels: record id out of range");
    if (is_rep_[records[i]]) continue;
    is_rep_[records[i]] = 1;
    additions.push_back(records[i]);
    addition_pos.push_back(i);
  }
  if (additions.empty()) return 0;

  const size_t old_count = rep_record_ids_.size();
  for (size_t i = 0; i < additions.size(); ++i) {
    rep_record_ids_.push_back(additions[i]);
    rep_labels_.push_back(labels[addition_pos[i]]);
    rep_label_valid_.push_back(1);
  }
  rep_embeddings_.AppendRowsFrom(embeddings_, additions);
  cluster::UpdateTopKWithNewReps(embeddings_, codes_, rep_embeddings_,
                                 old_count, additions.size(), &topk_,
                                 delta_.full ? nullptr : &delta_.dirty_rows);
  return additions.size();
}

size_t TastiIndex::AppendRecords(const nn::Matrix& new_features) {
  TASTI_SPAN("index.append_records");
  TASTI_CHECK(embedder_ != nullptr,
              "AppendRecords requires the index's embedding network");
  TASTI_CHECK(new_features.rows() > 0, "no records to append");
  const size_t first_new = embeddings_.rows();

  const nn::Matrix new_embeddings = embedder_->Embed(new_features);
  TASTI_CHECK(new_embeddings.cols() == embeddings_.cols(),
              "appended embedding width mismatch");
  std::vector<size_t> all_rows(new_embeddings.rows());
  for (size_t i = 0; i < all_rows.size(); ++i) all_rows[i] = i;
  embeddings_.AppendRowsFrom(new_embeddings, all_rows);
  codes_.Append(new_embeddings, 0, new_embeddings.rows());
  is_rep_.resize(embeddings_.rows(), 0);

  // Min-k lists for the new rows only.
  const cluster::TopKDistances fresh =
      cluster::ComputeTopK(new_embeddings, rep_embeddings_, topk_.k);
  topk_.num_records = embeddings_.rows();
  topk_.rep_ids.insert(topk_.rep_ids.end(), fresh.rep_ids.begin(),
                       fresh.rep_ids.end());
  topk_.distances.insert(topk_.distances.end(), fresh.distances.begin(),
                         fresh.distances.end());
  return first_new;
}

bool TastiIndex::IsRepresentative(size_t record_id) const {
  TASTI_CHECK(record_id < is_rep_.size(), "record_id out of range");
  return is_rep_[record_id] != 0;
}

std::vector<size_t> TastiIndex::failed_representative_positions() const {
  std::vector<size_t> positions;
  if (num_failed_reps_ == 0) return positions;
  for (size_t i = 0; i < rep_label_valid_.size(); ++i) {
    if (rep_label_valid_[i] == 0) positions.push_back(i);
  }
  return positions;
}

std::vector<size_t> TastiIndex::failed_rep_record_ids() const {
  std::vector<size_t> ids;
  for (size_t pos : failed_representative_positions()) {
    ids.push_back(rep_record_ids_[pos]);
  }
  return ids;
}

void TastiIndex::RepairRepresentative(size_t rep_pos, data::LabelerOutput label) {
  TASTI_CHECK(rep_pos < rep_labels_.size(), "rep_pos out of range");
  TASTI_CHECK(rep_label_valid_[rep_pos] == 0,
              "RepairRepresentative on a valid representative");
  rep_labels_[rep_pos] = std::move(label);
  rep_label_valid_[rep_pos] = 1;
  --num_failed_reps_;
  // A repair leaves every min-k list unchanged but flips the rep from
  // propagation-excluded to included, so exactly the records holding it in
  // their stored neighbor list diverge from the previous epoch.
  if (!delta_.full) {
    delta_.dirty_reps.push_back(static_cast<uint32_t>(rep_pos));
    const uint32_t target = static_cast<uint32_t>(rep_pos);
    const size_t k = topk_.k;
    for (size_t i = 0; i < topk_.num_records; ++i) {
      const uint32_t* ids = topk_.rep_ids.data() + i * k;
      for (size_t j = 0; j < k; ++j) {
        if (ids[j] == target) {
          delta_.dirty_rows.push_back(static_cast<uint32_t>(i));
          break;
        }
      }
    }
  }
}

IndexDelta TastiIndex::TakeDelta() {
  IndexDelta out = std::move(delta_);
  delta_ = IndexDelta{};
  delta_.full = false;
  delta_.base_num_representatives = num_representatives();
  delta_.base_num_records = num_records();
  if (!out.full) {
    auto sort_unique = [](std::vector<uint32_t>* v) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    };
    sort_unique(&out.dirty_rows);
    sort_unique(&out.dirty_reps);
    // Rows and reps created inside this window are covered by the growth
    // baselines; keep only entries the parent epoch already had.
    out.dirty_rows.erase(
        std::partition_point(
            out.dirty_rows.begin(), out.dirty_rows.end(),
            [&](uint32_t r) { return r < out.base_num_records; }),
        out.dirty_rows.end());
    out.dirty_reps.erase(
        std::partition_point(
            out.dirty_reps.begin(), out.dirty_reps.end(),
            [&](uint32_t r) { return r < out.base_num_representatives; }),
        out.dirty_reps.end());
  }
  return out;
}

}  // namespace tasti::core
