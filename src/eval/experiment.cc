#include "eval/experiment.h"

#include <cstdlib>

#include "labeler/resilient.h"
#include "util/status.h"

namespace tasti::eval {

ExperimentConfig ExperimentConfig::FromEnv() {
  ExperimentConfig config;
  const char* scale_env = std::getenv("TASTI_BENCH_SCALE");
  if (scale_env != nullptr) {
    const double scale = std::atof(scale_env);
    if (scale > 0.0) {
      auto scaled = [scale](size_t v) {
        return static_cast<size_t>(static_cast<double>(v) * scale) + 16;
      };
      config.video_records = scaled(config.video_records);
      config.video_train = scaled(config.video_train);
      config.video_reps = scaled(config.video_reps);
      config.text_speech_records = scaled(config.text_speech_records);
      config.text_speech_train = scaled(config.text_speech_train);
      config.text_speech_reps = scaled(config.text_speech_reps);
      config.proxy_train_budget = scaled(config.proxy_train_budget);
    }
  }
  return config;
}

namespace {
bool IsVideo(data::DatasetId id) {
  return id == data::DatasetId::kNightStreet || id == data::DatasetId::kTaipei ||
         id == data::DatasetId::kAmsterdam;
}
}  // namespace

size_t ExperimentConfig::RecordsFor(data::DatasetId id) const {
  return IsVideo(id) ? video_records : text_speech_records;
}
size_t ExperimentConfig::TrainFor(data::DatasetId id) const {
  return IsVideo(id) ? video_train : text_speech_train;
}
size_t ExperimentConfig::RepsFor(data::DatasetId id) const {
  return IsVideo(id) ? video_reps : text_speech_reps;
}

std::string MethodName(Method method) {
  switch (method) {
    case Method::kNoProxy:
      return "No proxy";
    case Method::kPerQueryProxy:
      return "Per-query proxy";
    case Method::kTastiPT:
      return "TASTI-PT";
    case Method::kTastiT:
      return "TASTI-T";
  }
  return "unknown";
}

std::vector<QuerySpec> DefaultQuerySpecs(data::DatasetId id) {
  using data::ObjectClass;
  std::vector<QuerySpec> specs;
  // Selection predicates target the rarer side of each dataset (multi-car
  // frames, buses): at simulation scale, majority-class presence is too
  // easy for every method to separate, whereas the paper's pixel-level
  // predicates are hard; rare predicates restore the paper's difficulty.
  auto make_video_spec = [](std::string label, ObjectClass cls,
                            int selection_count, int limit_count, size_t want) {
    QuerySpec spec;
    spec.label = std::move(label);
    spec.aggregation = std::make_unique<core::CountScorer>(cls);
    if (selection_count <= 1) {
      spec.selection = std::make_unique<core::PresenceScorer>(cls);
    } else {
      spec.selection =
          std::make_unique<core::AtLeastCountScorer>(cls, selection_count);
    }
    spec.limit_predicate =
        std::make_unique<core::AtLeastCountScorer>(cls, limit_count);
    spec.limit_want = want;
    return spec;
  };
  switch (id) {
    case data::DatasetId::kNightStreet:
      specs.push_back(
          make_video_spec("night-street", ObjectClass::kCar, 2, 6, 10));
      break;
    case data::DatasetId::kTaipei:
      specs.push_back(
          make_video_spec("taipei (car)", ObjectClass::kCar, 2, 6, 10));
      specs.push_back(
          make_video_spec("taipei (bus)", ObjectClass::kBus, 1, 2, 10));
      break;
    case data::DatasetId::kAmsterdam:
      specs.push_back(make_video_spec("amsterdam", ObjectClass::kCar, 2, 4, 10));
      break;
    case data::DatasetId::kWikiSql: {
      QuerySpec spec;
      spec.label = "wikisql";
      spec.aggregation = std::make_unique<core::PredicateCountScorer>();
      // Complex questions (>= 3 predicates): the boundary sits between
      // adjacent predicate counts, which is genuinely ambiguous in feature
      // space (unlike the operator one-hot, which is trivially separable
      // at simulation scale).
      spec.selection = std::make_unique<core::LambdaScorer>(
          [](const data::LabelerOutput& output) {
            const auto* text = std::get_if<data::TextLabel>(&output);
            return (text != nullptr && text->num_predicates >= 3) ? 1.0 : 0.0;
          },
          /*categorical=*/true, "preds>=3");
      // Rare event: MIN questions with 4 predicates (~0.3%).
      spec.limit_predicate = std::make_unique<core::LambdaScorer>(
          [](const data::LabelerOutput& output) {
            const auto* text = std::get_if<data::TextLabel>(&output);
            return (text != nullptr && text->op == data::SqlOp::kMin &&
                    text->num_predicates >= 4)
                       ? 1.0
                       : 0.0;
          },
          /*categorical=*/true, "op=MIN&preds>=4");
      spec.limit_want = 10;
      specs.push_back(std::move(spec));
      break;
    }
    case data::DatasetId::kCommonVoice: {
      QuerySpec spec;
      spec.label = "common-voice";
      spec.aggregation = std::make_unique<core::MaleScorer>();
      spec.selection = std::make_unique<core::MaleScorer>();
      // Rare event: speakers aged 70+.
      spec.limit_predicate = std::make_unique<core::LambdaScorer>(
          [](const data::LabelerOutput& output) {
            const auto* speech = std::get_if<data::SpeechLabel>(&output);
            return (speech != nullptr && speech->age_years >= 70) ? 1.0 : 0.0;
          },
          /*categorical=*/true, "age>=70");
      spec.limit_want = 10;
      specs.push_back(std::move(spec));
      break;
    }
  }
  return specs;
}

Workbench::Workbench(data::DatasetId id, const ExperimentConfig& config)
    : id_(id), config_(config) {
  data::DatasetOptions dataset_options;
  dataset_options.num_records = config.RecordsFor(id);
  dataset_options.seed = config.seed;
  dataset_ = data::MakeDataset(id, dataset_options);
}

core::IndexOptions Workbench::BaseIndexOptions() const {
  core::IndexOptions options;
  options.num_training_records = config_.TrainFor(id_);
  options.num_representatives = config_.RepsFor(id_);
  options.embedding_dim = config_.embedding_dim;
  options.epochs = config_.epochs;
  options.seed = config_.seed * 7 + 1;
  return options;
}

const core::TastiIndex& Workbench::GetOrBuild(bool trained) {
  auto& slot = trained ? tasti_t_ : tasti_pt_;
  if (!slot.has_value()) {
    core::IndexOptions options = BaseIndexOptions();
    options.use_triplet_training = trained;
    labeler::SimulatedLabeler oracle(&dataset_);
    labeler::FallibleAdapter adapter(&oracle);
    labeler::CachingFallibleLabeler cache(&adapter);
    slot = core::TastiIndex::Build(dataset_, &cache, options);
    (trained ? tasti_t_invocations_ : tasti_pt_invocations_) =
        oracle.invocations();
  }
  return *slot;
}

const core::TastiIndex& Workbench::TastiT() { return GetOrBuild(true); }
const core::TastiIndex& Workbench::TastiPT() { return GetOrBuild(false); }

size_t Workbench::TastiTBuildInvocations() {
  TastiT();
  return tasti_t_invocations_;
}
size_t Workbench::TastiPTBuildInvocations() {
  TastiPT();
  return tasti_pt_invocations_;
}

std::unique_ptr<labeler::TargetLabeler> Workbench::MakeOracle() const {
  return std::make_unique<labeler::SimulatedLabeler>(&dataset_);
}

std::vector<double> Workbench::TastiScores(const core::Scorer& scorer,
                                           bool trained,
                                           core::PropagationMode mode) {
  return core::ComputeProxyScores(GetOrBuild(trained), scorer, mode);
}

baselines::PerQueryProxyResult Workbench::PerQueryProxy(
    const core::Scorer& scorer, uint64_t seed_salt) {
  baselines::ProxyTrainOptions options;
  options.num_training_records = config_.proxy_train_budget;
  options.seed = config_.seed * 31 + 7 + seed_salt;
  labeler::SimulatedLabeler oracle(&dataset_);
  return baselines::TrainPerQueryProxy(dataset_.features, &oracle, scorer,
                                       options);
}

}  // namespace tasti::eval
