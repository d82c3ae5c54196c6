#ifndef TASTI_EVAL_EXPERIMENT_H_
#define TASTI_EVAL_EXPERIMENT_H_

/// \file experiment.h
/// Shared plumbing for the benchmark harness: dataset construction at
/// bench scale, cached index variants (TASTI-T / TASTI-PT), per-query
/// proxy training, and the per-dataset default query specs used across
/// the paper's figures.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/per_query_proxy.h"
#include "core/index.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "data/dataset.h"
#include "labeler/labeler.h"

namespace tasti::eval {

/// Experiment scale. The paper's videos have ~1M frames with N1 = 3,000
/// and N2 = 7,000; we default to 20k records with proportionally larger
/// index fractions so statistical behaviour is comparable at laptop scale.
struct ExperimentConfig {
  size_t video_records = 20000;
  size_t video_train = 1000;       ///< N1 for video datasets
  size_t video_reps = 2000;        ///< N2 for video datasets
  size_t text_speech_records = 10000;
  size_t text_speech_train = 500;  ///< paper's WikiSQL/Common Voice setting
  size_t text_speech_reps = 500;
  size_t embedding_dim = 64;
  size_t epochs = 40;
  /// Per-query proxy training budget (the baseline's TMAS share).
  size_t proxy_train_budget = 4000;
  uint64_t seed = 42;

  /// Reads TASTI_BENCH_SCALE (a float; default 1.0) from the environment
  /// and scales record counts, for quick smoke runs of the benches.
  static ExperimentConfig FromEnv();

  size_t RecordsFor(data::DatasetId id) const;
  size_t TrainFor(data::DatasetId id) const;
  size_t RepsFor(data::DatasetId id) const;
};

/// The four methods compared across the paper's figures.
enum class Method { kNoProxy, kPerQueryProxy, kTastiPT, kTastiT };

std::string MethodName(Method method);

/// The standard query suite for one dataset (paper Section 6.1):
/// aggregation statistic, selection predicate, and limit predicate.
struct QuerySpec {
  std::string label;  ///< e.g. "night-street", "taipei (bus)"
  std::unique_ptr<core::Scorer> aggregation;
  std::unique_ptr<core::Scorer> selection;
  std::unique_ptr<core::Scorer> limit_predicate;
  size_t limit_want = 10;
};

/// Default query specs per dataset. taipei yields two specs (car and bus,
/// sharing one index), matching the paper's six figure panels.
std::vector<QuerySpec> DefaultQuerySpecs(data::DatasetId id);

/// A dataset with cached index variants and cost accounting.
class Workbench {
 public:
  Workbench(data::DatasetId id, const ExperimentConfig& config);

  const data::Dataset& dataset() const { return dataset_; }
  data::DatasetId id() const { return id_; }
  const ExperimentConfig& config() const { return config_; }

  /// TASTI with triplet training (built and cached on first use).
  const core::TastiIndex& TastiT();
  /// TASTI with the pretrained embedding only.
  const core::TastiIndex& TastiPT();

  /// Target-labeler invocations spent building each variant.
  size_t TastiTBuildInvocations();
  size_t TastiPTBuildInvocations();

  /// Fresh invocation-counting oracle over the dataset.
  std::unique_ptr<labeler::TargetLabeler> MakeOracle() const;

  /// TASTI proxy scores for a scorer.
  std::vector<double> TastiScores(const core::Scorer& scorer, bool trained,
                                  core::PropagationMode mode =
                                      core::PropagationMode::kNumeric);

  /// Trains a per-query proxy for the scorer (charged the configured
  /// budget) and returns its scores + cost.
  baselines::PerQueryProxyResult PerQueryProxy(const core::Scorer& scorer,
                                               uint64_t seed_salt = 0);

  /// Index options used for this dataset (exposed so ablation benches can
  /// perturb them and rebuild manually).
  core::IndexOptions BaseIndexOptions() const;

 private:
  const core::TastiIndex& GetOrBuild(bool trained);

  data::DatasetId id_;
  ExperimentConfig config_;
  data::Dataset dataset_;
  std::optional<core::TastiIndex> tasti_t_;
  std::optional<core::TastiIndex> tasti_pt_;
  size_t tasti_t_invocations_ = 0;
  size_t tasti_pt_invocations_ = 0;
};

}  // namespace tasti::eval

#endif  // TASTI_EVAL_EXPERIMENT_H_
