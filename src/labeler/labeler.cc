#include "labeler/labeler.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/random.h"
#include "util/status.h"

namespace tasti::labeler {

std::vector<data::LabelerOutput> TargetLabeler::LabelBatch(
    const std::vector<size_t>& indices) {
  std::vector<data::LabelerOutput> labels;
  labels.reserve(indices.size());
  for (size_t index : indices) labels.push_back(Label(index));
  return labels;
}

std::vector<Result<data::LabelerOutput>> FallibleLabeler::TryLabelBatch(
    const std::vector<size_t>& indices) {
  std::vector<Result<data::LabelerOutput>> results;
  results.reserve(indices.size());
  for (size_t index : indices) results.push_back(TryLabel(index));
  return results;
}

FallibleAdapter::FallibleAdapter(TargetLabeler* inner) : inner_(inner) {
  TASTI_CHECK(inner != nullptr, "FallibleAdapter requires an inner labeler");
}

Result<data::LabelerOutput> FallibleAdapter::TryLabel(size_t index) {
  return inner_->Label(index);
}

BestEffortLabeler::BestEffortLabeler(FallibleLabeler* inner,
                                     data::LabelerOutput fallback)
    : inner_(inner), fallback_(std::move(fallback)) {
  TASTI_CHECK(inner != nullptr, "BestEffortLabeler requires an inner labeler");
}

data::LabelerOutput BestEffortLabeler::Label(size_t index) {
  Result<data::LabelerOutput> r = inner_->TryLabel(index);
  if (r.ok()) return std::move(r).value();
  ++failures_;
  return fallback_;
}

std::vector<data::LabelerOutput> BestEffortLabeler::LabelBatch(
    const std::vector<size_t>& indices) {
  std::vector<Result<data::LabelerOutput>> results =
      inner_->TryLabelBatch(indices);
  std::vector<data::LabelerOutput> labels;
  labels.reserve(results.size());
  for (Result<data::LabelerOutput>& r : results) {
    if (r.ok()) {
      labels.push_back(std::move(r).value());
    } else {
      ++failures_;
      labels.push_back(fallback_);
    }
  }
  return labels;
}

data::LabelerOutput DefaultLabelFor(data::Modality modality) {
  switch (modality) {
    case data::Modality::kVideo:
      return data::VideoLabel{};
    case data::Modality::kText:
      return data::TextLabel{};
    case data::Modality::kSpeech:
      return data::SpeechLabel{};
  }
  return data::VideoLabel{};
}

SimulatedLabeler::SimulatedLabeler(const data::Dataset* dataset)
    : dataset_(dataset) {
  TASTI_CHECK(dataset != nullptr, "SimulatedLabeler requires a dataset");
}

data::LabelerOutput SimulatedLabeler::Label(size_t index) {
  TASTI_CHECK(index < dataset_->size(), "label index out of range");
  invocations_.fetch_add(1, std::memory_order_relaxed);
  return dataset_->ground_truth[index];
}

size_t SimulatedLabeler::num_records() const { return dataset_->size(); }

DegradedLabeler::DegradedLabeler(const data::Dataset* dataset,
                                 DegradationOptions options)
    : dataset_(dataset), options_(options) {
  TASTI_CHECK(dataset != nullptr, "DegradedLabeler requires a dataset");
}

namespace {

// The degraded detector's error model besides its miss and false-positive
// rates: a detected box gets the wrong class with this probability, and
// positional jitter of this std-dev.
constexpr double kClassConfusionProbability = 0.05;
constexpr double kPositionNoise = 0.03;

}  // namespace

data::LabelerOutput DegradedLabeler::Label(size_t index) {
  TASTI_CHECK(index < dataset_->size(), "label index out of range");
  invocations_.fetch_add(1, std::memory_order_relaxed);
  const data::LabelerOutput& truth = dataset_->ground_truth[index];
  const auto* video = std::get_if<data::VideoLabel>(&truth);
  if (video == nullptr) return truth;  // degradation modeled for video only

  // Deterministic per-record noise: seed the stream from (seed, index).
  uint64_t mix = options_.seed ^ (index * 0x9E3779B97F4A7C15ULL);
  Rng rng(SplitMix64(&mix));

  data::VideoLabel out;
  for (const data::Box& box : video->boxes) {
    if (rng.Bernoulli(options_.miss_probability)) continue;
    data::Box detected = box;
    if (!dataset_->classes.empty() &&
        rng.Bernoulli(kClassConfusionProbability)) {
      detected.cls = dataset_->classes[rng.UniformInt(dataset_->classes.size())];
    }
    detected.x = std::clamp(
        detected.x + static_cast<float>(rng.Normal(0.0, kPositionNoise)),
        0.0f, 1.0f);
    detected.y = std::clamp(
        detected.y + static_cast<float>(rng.Normal(0.0, kPositionNoise)),
        0.0f, 1.0f);
    out.boxes.push_back(detected);
  }
  const int spurious = rng.Poisson(options_.false_positive_rate);
  for (int s = 0; s < spurious; ++s) {
    data::Box fp;
    fp.cls = dataset_->classes.empty()
                 ? data::ObjectClass::kCar
                 : dataset_->classes[rng.UniformInt(dataset_->classes.size())];
    fp.x = static_cast<float>(rng.Uniform());
    fp.y = static_cast<float>(rng.Uniform());
    fp.w = 0.1f;
    fp.h = 0.08f;
    out.boxes.push_back(fp);
  }
  return out;
}

size_t DegradedLabeler::num_records() const { return dataset_->size(); }

}  // namespace tasti::labeler
