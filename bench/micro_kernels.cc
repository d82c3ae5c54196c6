// Microbenchmarks (google-benchmark) for the kernels that dominate index
// construction and query processing: FPF selection, top-k distances,
// score propagation, embedding inference, and the triplet loss.

#include <benchmark/benchmark.h>

#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "cluster/fpf.h"
#include "cluster/topk.h"
#include "core/index.h"
#include "core/propagation.h"
#include "core/scorer.h"
#include "data/dataset.h"
#include "eval/reporting.h"
#include "kernel_baselines.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"
#include "nn/kernels.h"
#include "nn/mlp.h"
#include "nn/triplet.h"
#include "util/random.h"

namespace tasti {
namespace {

nn::Matrix RandomPoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  nn::Matrix m(n, dim);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Normal());
  }
  return m;
}

void BM_Fpf(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  nn::Matrix points = RandomPoints(n, 64, 1);
  for (auto _ : state) {
    cluster::FpfResult result = cluster::FurthestPointFirst(points, k);
    benchmark::DoNotOptimize(result.centers.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n * k));
}
BENCHMARK(BM_Fpf)->Args({10000, 100})->Args({10000, 500})->Args({50000, 100});

void BM_TopK(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t reps = static_cast<size_t>(state.range(1));
  nn::Matrix points = RandomPoints(n, 64, 2);
  nn::Matrix rep_points = RandomPoints(reps, 64, 3);
  for (auto _ : state) {
    cluster::TopKDistances topk = cluster::ComputeTopK(points, rep_points, 5);
    benchmark::DoNotOptimize(topk.distances.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n * reps));
}
BENCHMARK(BM_TopK)->Args({10000, 500})->Args({10000, 2000})->Args({50000, 500});

// Before/after pairs for the blocked distance kernels: the *Scalar rows
// time the pre-kernel one-pair-at-a-time loops (bench/kernel_baselines.h),
// the matching rows above/below time the shipped batched implementations.

void BM_TopKScalar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t reps = static_cast<size_t>(state.range(1));
  nn::Matrix points = RandomPoints(n, 64, 2);
  nn::Matrix rep_points = RandomPoints(reps, 64, 3);
  for (auto _ : state) {
    cluster::TopKDistances topk =
        bench::ComputeTopKScalar(points, rep_points, 5);
    benchmark::DoNotOptimize(topk.distances.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n * reps));
}
BENCHMARK(BM_TopKScalar)->Args({10000, 500})->Args({10000, 2000});

void BM_FpfRelax(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  nn::Matrix points = RandomPoints(n, 64, 1);
  // Mirrors the shipped relax pass (cluster::FurthestPointFirst): points
  // packed once per FPF call (amortized over all k passes, so outside the
  // timed loop), squared distances throughout, sqrt hoisted out.
  const std::vector<nn::PackedBlock> blocks = nn::PackBlocks(points);
  std::vector<float> min_d2(n, std::numeric_limits<float>::max());
  std::vector<float> d2(nn::kDistanceBlockRows);
  size_t center = 0;
  for (auto _ : state) {
    const float cnorm = nn::RowSquaredNorm(points, center);
    float best = -1.0f;
    size_t arg = 0;
    for (const nn::PackedBlock& block : blocks) {
      nn::SquaredDistanceBatch(points, center, cnorm, block, d2.data());
      const size_t base = block.row_begin();
      for (size_t j = 0; j < block.rows(); ++j) {
        const size_t i = base + j;
        if (d2[j] < min_d2[i]) min_d2[i] = d2[j];
        if (min_d2[i] > best) {
          best = min_d2[i];
          arg = i;
        }
      }
    }
    center = arg;
    benchmark::DoNotOptimize(min_d2.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
// 6000 points x 64 dims is L2-resident (1.5 MiB packed) and shows the
// kernel's compute-bound speedup; the larger shapes run into the
// single-core L3 bandwidth ceiling (the relax streams 64 * 4 bytes per
// point per pass) and the gain compresses toward ~2.5-3x.
BENCHMARK(BM_FpfRelax)->Arg(6000)->Arg(10000)->Arg(50000);

void BM_FpfRelaxScalar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  nn::Matrix points = RandomPoints(n, 64, 1);
  std::vector<float> min_distance(n, std::numeric_limits<float>::max());
  size_t center = 0;
  for (auto _ : state) {
    center = bench::FpfRelaxScalar(points, center, &min_distance);
    benchmark::DoNotOptimize(min_distance.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FpfRelaxScalar)->Arg(6000)->Arg(10000)->Arg(50000);

// One crack of `batch` new reps onto a top-k over 512 reps; items are
// (record, new rep) pairs, so items/s compares batch sizes directly. After
// the timed loop, one untimed crack reports the prefilter's survivor share
// (pairs re-decided exactly / pairs visited), once per argument pair.
void BM_CrackUpdate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t batch = static_cast<size_t>(state.range(1));
  nn::Matrix points = RandomPoints(n, 64, 4);
  nn::Matrix reps = RandomPoints(512, 64, 5);
  cluster::TopKDistances topk = cluster::ComputeTopK(points, reps, 5);
  const nn::Matrix extra = RandomPoints(batch, 64, 6);
  std::vector<size_t> extra_rows(batch);
  for (size_t i = 0; i < batch; ++i) extra_rows[i] = i;
  reps.AppendRowsFrom(extra, extra_rows);
  for (auto _ : state) {
    cluster::TopKDistances copy = topk;
    cluster::UpdateTopKWithNewReps(points, reps, 512, batch, &copy, nullptr);
    benchmark::DoNotOptimize(copy.distances.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n * batch));

  static std::set<std::pair<size_t, size_t>> reported;
  if (!reported.insert({n, batch}).second) return;
  cluster::TopKDistances copy = topk;
  size_t exact_checks = 0;
  cluster::UpdateTopKWithNewReps(points, reps, 512, batch, &copy, nullptr,
                                 &exact_checks);
  eval::Diag("crack_update/%zu/%zu: %zu of %zu pairs (%.3f%%) survive the "
             "prefilter",
             n, batch, exact_checks, n * batch,
             100.0 * static_cast<double>(exact_checks) /
                 static_cast<double>(n * batch));
}
BENCHMARK(BM_CrackUpdate)
    ->Args({10000, 1})
    ->Args({10000, 64})
    ->Args({10000, 512})
    ->Args({100000, 64});

// One small prebuilt index shared by the propagation benchmarks.
struct PropagationFixture {
  data::Dataset dataset;
  core::TastiIndex index;
  std::vector<double> rep_scores;

  PropagationFixture() {
    data::DatasetOptions ds_opts;
    ds_opts.num_records = 20000;
    dataset = data::MakeNightStreet(ds_opts);
    core::IndexOptions opts;
    opts.num_training_records = 200;
    opts.num_representatives = 1000;
    opts.embedding_dim = 32;
    opts.epochs = 5;
    labeler::SimulatedLabeler oracle(&dataset);
    labeler::FallibleAdapter adapter(&oracle);
    labeler::CachingFallibleLabeler cache(&adapter);
    index = core::TastiIndex::Build(dataset, &cache, opts);
    core::CountScorer scorer(data::ObjectClass::kCar);
    rep_scores = core::RepresentativeScores(index, scorer);
  }

  static PropagationFixture& Get() {
    static PropagationFixture fixture;
    return fixture;
  }
};

void BM_PropagateNumeric(benchmark::State& state) {
  auto& fixture = PropagationFixture::Get();
  core::PropagationState propagation;
  propagation.rep_scores = fixture.rep_scores;
  for (auto _ : state) {
    core::PropagateFull(fixture.index.View(), &propagation);
    benchmark::DoNotOptimize(propagation.scores.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fixture.index.num_records()));
}
BENCHMARK(BM_PropagateNumeric);

void BM_MlpInference(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  Rng rng(7);
  nn::Mlp net = nn::Mlp::MakeEmbeddingNet(64, 128, 64, &rng);
  nn::Matrix input = RandomPoints(batch, 64, 8);
  for (auto _ : state) {
    nn::Matrix out = net.Infer(input);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_MlpInference)->Arg(64)->Arg(1024)->Arg(16384);

void BM_TripletLoss(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  nn::Matrix a = RandomPoints(batch, 64, 9);
  nn::Matrix p = RandomPoints(batch, 64, 10);
  nn::Matrix n = RandomPoints(batch, 64, 11);
  for (auto _ : state) {
    nn::TripletLossResult result = nn::TripletLoss(a, p, n, 0.3f);
    benchmark::DoNotOptimize(result.grad_anchor.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_TripletLoss)->Arg(64)->Arg(1024);

void BM_Gemm(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  nn::Matrix a = RandomPoints(n, 64, 12);
  nn::Matrix b = RandomPoints(64, 128, 13);
  nn::Matrix c;
  for (auto _ : state) {
    nn::Gemm(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n * 64 * 128));
}
BENCHMARK(BM_Gemm)->Arg(256)->Arg(4096);

void BM_GemmBTBlocked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  nn::Matrix a = RandomPoints(n, 64, 12);
  nn::Matrix b = RandomPoints(512, 64, 13);
  nn::Matrix c;
  for (auto _ : state) {
    nn::GemmBTBlocked(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n * 64 * 512));
}
BENCHMARK(BM_GemmBTBlocked)->Arg(256)->Arg(4096);

void BM_GemmBTScalar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  nn::Matrix a = RandomPoints(n, 64, 12);
  nn::Matrix b = RandomPoints(512, 64, 13);
  nn::Matrix c;
  for (auto _ : state) {
    bench::GemmBTScalar(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n * 64 * 512));
}
BENCHMARK(BM_GemmBTScalar)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace tasti
