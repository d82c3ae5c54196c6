// Ablations for this implementation's own design choices (DESIGN.md §5),
// beyond the paper's factor analysis: propagation neighbor count and
// weight power, the random mixture in representative selection, semi-hard
// negative mining, and the best-of-k limit ranking.
//
// Metrics on night-street: proxy quality (rho^2 of the count proxy) for
// the propagation/training knobs, and labeler invocations for the limit
// ranking variants.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "cluster/fpf.h"
#include "cluster/topk.h"
#include "core/index.h"
#include "core/propagation.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "embed/pretrained.h"
#include "embed/triplet_trainer.h"
#include "eval/experiment.h"
#include "eval/reporting.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"
#include "queries/limit.h"
#include "util/stats.h"
#include "util/table.h"

using namespace tasti;

int main() {
  eval::PrintBanner("Design-choice ablations (implementation-specific knobs)");

  eval::ExperimentConfig config = eval::ExperimentConfig::FromEnv();
  eval::Workbench bench(data::DatasetId::kNightStreet, config);
  core::CountScorer count(data::ObjectClass::kCar);
  const std::vector<double> truth = core::ExactScores(bench.dataset(), count);
  const core::TastiIndex& index = bench.TastiT();

  // --- Propagation: neighbors x weight power ---
  {
    TablePrinter table({"propagation k", "weight power", "count rho^2"});
    for (size_t k : {1, 3, 5}) {
      for (float power : {1.0f, 2.0f, 3.0f}) {
        core::PropagationOptions opts;
        opts.k = k;
        opts.weight_power = power;
        const auto proxy = core::ComputeProxyScores(
            index, count, core::PropagationMode::kNumeric, opts);
        const double rho = PearsonCorrelation(proxy, truth);
        table.AddRow({FmtCount(static_cast<long long>(k)), Fmt(power, 0),
                      Fmt(rho * rho, 4)});
      }
    }
    eval::PrintTable(table);
  }

  // --- Limit ranking: best-of-k vs nearest-only ---
  {
    core::AtLeastCountScorer busy(data::ObjectClass::kCar, 6);
    TablePrinter table({"limit ranking", "labeler calls (10 matches)"});
    for (bool best_of_k : {true, false}) {
      core::PropagationState ranking;
      ranking.mode = core::PropagationMode::kLimit;
      ranking.use_best_of_k = best_of_k;
      ranking.rep_scores = core::RepresentativeScores(index, busy);
      core::PropagateFull(index.View(), &ranking);
      auto oracle = bench.MakeOracle();
      labeler::FallibleAdapter adapter(oracle.get());
      queries::LimitOptions opts;
      opts.want = 10;
      const size_t calls =
          queries::TryLimitQuery(ranking.scores, &adapter, busy, opts)
              .value()
              .labeler_invocations;
      table.AddRow({best_of_k ? "best-of-k (default)" : "nearest-only (paper)",
                    FmtCount(static_cast<long long>(calls))});
    }
    eval::PrintTable(table);
  }

  // --- Representative selection: random mixture fraction ---
  {
    TablePrinter table({"random mix", "count rho^2", "limit calls"});
    core::AtLeastCountScorer busy(data::ObjectClass::kCar, 6);
    for (double mix : {0.0, 0.1, 0.3, 1.0}) {
      core::IndexOptions opts = bench.BaseIndexOptions();
      opts.random_rep_fraction = mix;
      if (mix >= 1.0) opts.rep_selection = core::RepSelectionPolicy::kRandom;
      labeler::SimulatedLabeler oracle(&bench.dataset());
      labeler::FallibleAdapter adapter(&oracle);
      labeler::CachingFallibleLabeler cache(&adapter);
      core::TastiIndex variant =
          core::TastiIndex::Build(bench.dataset(), &cache, opts);
      const auto proxy = core::ComputeProxyScores(variant, count);
      const double rho = PearsonCorrelation(proxy, truth);
      const auto ranking =
          core::ComputeProxyScores(variant, busy, core::PropagationMode::kLimit);
      auto query_oracle = bench.MakeOracle();
      labeler::FallibleAdapter query_adapter(query_oracle.get());
      queries::LimitOptions limit_opts;
      limit_opts.want = 10;
      const size_t calls =
          queries::TryLimitQuery(ranking, &query_adapter, busy, limit_opts)
              .value()
              .labeler_invocations;
      table.AddRow({mix >= 1.0 ? "1.0 (pure random)" : Fmt(mix, 1),
                    Fmt(rho * rho, 4), FmtCount(static_cast<long long>(calls))});
    }
    eval::PrintTable(table);
  }

  // --- Triplet training: semi-hard mining on/off ---
  {
    TablePrinter table({"negative mining", "count rho^2", "final loss"});
    for (size_t candidates : {size_t{1}, size_t{4}}) {
      embed::TripletTrainOptions opts;
      opts.num_training_records = config.video_train;
      opts.embedding_dim = config.embedding_dim;
      opts.epochs = config.epochs;
      opts.negative_candidates = candidates;
      opts.seed = 295;
      embed::PretrainedEmbedder pretrained(bench.dataset().feature_dim(),
                                           config.embedding_dim, 7);
      labeler::SimulatedLabeler oracle(&bench.dataset());
      embed::TripletTrainResult trained = embed::TrainTripletEmbedder(
          bench.dataset().features, pretrained, &oracle,
          bench.dataset().closeness, opts);
      // Evaluate via a fresh index built on this embedding through the
      // same rep-selection path: approximate by correlating a k-NN proxy
      // over FPF reps in the trained space.
      core::IndexOptions index_opts = bench.BaseIndexOptions();
      index_opts.epochs = 0;  // unused below
      // Quick evaluation: embed, pick reps by FPF, propagate counts.
      const nn::Matrix embeddings =
          trained.embedder->Embed(bench.dataset().features);
      Rng rng(9);
      const auto reps = cluster::MixedFpfRandomSelection(
          embeddings, index_opts.num_representatives,
          index_opts.random_rep_fraction, &rng);
      const nn::Matrix rep_embeddings = embeddings.GatherRows(reps);
      const auto topk = cluster::ComputeTopK(embeddings, rep_embeddings, 5);
      std::vector<double> proxy(bench.dataset().size(), 0.0);
      for (size_t i = 0; i < proxy.size(); ++i) {
        double weight_sum = 0.0, score_sum = 0.0;
        for (size_t j = 0; j < topk.k; ++j) {
          const double w = 1.0 / std::pow(topk.Dist(i, j) + 1e-6, 2.0);
          weight_sum += w;
          score_sum +=
              w * count.Score(bench.dataset().ground_truth[reps[topk.RepId(i, j)]]);
        }
        proxy[i] = score_sum / weight_sum;
      }
      const double rho = PearsonCorrelation(proxy, truth);
      table.AddRow({candidates > 1 ? "semi-hard (default)" : "uniform",
                    Fmt(rho * rho, 4), Fmt(trained.final_loss, 4)});
    }
    eval::PrintTable(table);
  }

  eval::PrintTakeaway(
      "defaults (k=5, power=2, best-of-k ranking, 10% random mix, semi-hard "
      "mining) are at or near the best cell of each sweep");
  return 0;
}
