// Emits BENCH_kernels.json: {kernel, n, d, ns_per_op, isa, threads} rows
// for the scalar-vs-blocked distance-kernel pairs (and the
// perrep-vs-batched crack update pair), so the perf trajectory can be
// tracked across PRs without parsing google-benchmark output. `isa` is the
// kernel clone the loader picked (nn::KernelIsa()) and `threads` the
// global pool's size, so every row names the host it was timed on.
//
//   bench_to_json [output.json]     (default: BENCH_kernels.json)
//
// ns_per_op is nanoseconds per full kernel invocation over the stated
// shape (one top-k pass over n x reps, one FPF relax over n points, one
// m x n GemmBT, one 128-rep crack update over n records), median of
// repeated timed runs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "cluster/topk.h"
#include "eval/reporting.h"
#include "kernel_baselines.h"
#include "nn/int8_codes.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

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

/// Times fn for at least 50ms per repetition, returns median ns per call.
double MedianNsPerOp(const std::function<void()>& fn) {
  fn();  // warm-up
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    WallTimer timer;
    size_t calls = 0;
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = timer.Seconds();
    } while (elapsed < 0.05);
    samples.push_back(elapsed * 1e9 / static_cast<double>(calls));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct Row {
  std::string kernel;
  size_t n;
  size_t d;
  double ns_per_op;
};

}  // namespace
}  // namespace tasti

int main(int argc, char** argv) {
  using namespace tasti;
  const char* out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";

  std::vector<Row> rows;
  const size_t kDim = 64;

  // --- top-k: n records x r reps, k = 5 ---
  {
    const size_t n = 5000, r = 500;
    const nn::Matrix points = RandomPoints(n, kDim, 2);
    const nn::Matrix reps = RandomPoints(r, kDim, 3);
    rows.push_back({"topk_scalar", n, kDim, MedianNsPerOp([&] {
                      auto topk = bench::ComputeTopKScalar(points, reps, 5);
                      asm volatile("" ::"r"(topk.distances.data()));
                    })});
    rows.push_back({"topk_blocked", n, kDim, MedianNsPerOp([&] {
                      auto topk = cluster::ComputeTopK(points, reps, 5);
                      asm volatile("" ::"r"(topk.distances.data()));
                    })});
  }

  // --- FPF relax pass over n points ---
  // 6000 x 64 keeps the packed points L2-resident (1.5 MiB), measuring the
  // kernel's compute-bound speedup; larger n hits the single-core L3
  // bandwidth ceiling (see bench/micro_kernels BM_FpfRelax/50000).
  {
    const size_t n = 6000;
    const nn::Matrix points = RandomPoints(n, kDim, 1);
    std::vector<float> min_distance(n, std::numeric_limits<float>::max());
    size_t center = 0;
    rows.push_back({"fpf_relax_scalar", n, kDim, MedianNsPerOp([&] {
                      center =
                          bench::FpfRelaxScalar(points, center, &min_distance);
                      asm volatile("" ::"r"(min_distance.data()));
                    })});
    // The shipped relax pass (cluster::FurthestPointFirst) runs over
    // points packed once per FPF call — the pack is amortized over all k
    // passes, so it sits outside the timed region — and tracks squared
    // distances (sqrt is hoisted out of the per-iteration loop).
    const std::vector<nn::PackedBlock> blocks = nn::PackBlocks(points);
    std::vector<float> min_d2(n, std::numeric_limits<float>::max());
    std::vector<float> d2(nn::kDistanceBlockRows);
    center = 0;
    rows.push_back({"fpf_relax_blocked", n, kDim, MedianNsPerOp([&] {
                      const float cnorm = nn::RowSquaredNorm(points, center);
                      float best = -1.0f;
                      size_t arg = 0;
                      for (const nn::PackedBlock& block : blocks) {
                        nn::SquaredDistanceBatch(points, center, cnorm, block,
                                                 d2.data());
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
                      asm volatile("" ::"r"(min_d2.data()));
                    })});
  }

  // --- GemmBT: m x d times (n x d)^T ---
  {
    const size_t m = 1024, nrows = 512;
    const nn::Matrix a = RandomPoints(m, kDim, 12);
    const nn::Matrix b = RandomPoints(nrows, kDim, 13);
    nn::Matrix c;
    rows.push_back({"gemmbt_scalar", m, kDim, MedianNsPerOp([&] {
                      bench::GemmBTScalar(a, b, &c);
                      asm volatile("" ::"r"(c.data()));
                    })});
    rows.push_back({"gemmbt_blocked", m, kDim, MedianNsPerOp([&] {
                      nn::GemmBTBlocked(a, b, &c);
                      asm volatile("" ::"r"(c.data()));
                    })});
  }

  // --- crack update: 128 new reps onto an n-record top-k over 512 reps ---
  // Per-rep (one pool dispatch and one pass over the records per new rep)
  // against the record-major batched pass. Each call starts from the same
  // pre-crack top-k; the copy is in both timings.
  {
    const size_t n = 10000, old_reps = 512, new_reps = 128;
    const nn::Matrix points = RandomPoints(n, kDim, 6);
    nn::Matrix reps = RandomPoints(old_reps, kDim, 7);
    const cluster::TopKDistances base = cluster::ComputeTopK(points, reps, 5);
    const nn::Matrix extra = RandomPoints(new_reps, kDim, 8);
    std::vector<size_t> extra_rows(new_reps);
    for (size_t i = 0; i < new_reps; ++i) extra_rows[i] = i;
    reps.AppendRowsFrom(extra, extra_rows);
    const nn::Int8Codes codes = nn::Int8Codes::Fit(points);
    rows.push_back({"crack_update_perrep", n, kDim, MedianNsPerOp([&] {
                      cluster::TopKDistances topk = base;
                      bench::UpdateTopKPerRepScalar(points, reps, old_reps,
                                                    new_reps, &topk);
                      asm volatile("" ::"r"(topk.distances.data()));
                    })});
    rows.push_back({"crack_update_batched", n, kDim, MedianNsPerOp([&] {
                      cluster::TopKDistances topk = base;
                      cluster::UpdateTopKWithNewReps(points, codes, reps,
                                                     old_reps, new_reps, &topk,
                                                     nullptr);
                      asm volatile("" ::"r"(topk.distances.data()));
                    })});
  }

  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  const char* isa = nn::KernelIsa();
  const size_t threads = ThreadPool::Global().num_threads();
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out,
                 "  {\"kernel\": \"%s\", \"n\": %zu, \"d\": %zu, "
                 "\"ns_per_op\": %.1f, \"isa\": \"%s\", "
                 "\"threads\": %zu}%s\n",
                 rows[i].kernel.c_str(), rows[i].n, rows[i].d,
                 rows[i].ns_per_op, isa, threads,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);

  // Console summary with speedups for the paired rows (diagnostics only;
  // the JSON file is the machine-readable artifact).
  for (size_t i = 0; i + 1 < rows.size(); i += 2) {
    eval::Diag("%-18s %12.0f ns/op", rows[i].kernel.c_str(),
               rows[i].ns_per_op);
    eval::Diag("%-18s %12.0f ns/op  (%.2fx)", rows[i + 1].kernel.c_str(),
               rows[i + 1].ns_per_op,
               rows[i].ns_per_op / rows[i + 1].ns_per_op);
  }
  eval::Diag("kernel isa %s, %zu pool threads", isa, threads);
  eval::Diag("wrote %s", out_path);
  return 0;
}
