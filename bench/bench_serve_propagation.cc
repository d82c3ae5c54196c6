// Emits BENCH_propagation.json: {kernel, n, d, ns_per_op} rows for the
// incremental propagation engine and the serving score cache, in the same
// scalar/blocked pairing bench_compare.py gates (scalar = the pre-cache
// full-recompute path, blocked = the cached/incremental path):
//
//   repeated_scorer_scalar   16 queries of one scorer, full proxy
//                            computation each time
//   repeated_scorer_blocked  the same 16 queries through a fresh
//                            ScoreCache (1 full compute + 15 hits)
//   crack_requery_scalar     re-query after a 32-rep crack via a full
//                            recompute of the new epoch
//   crack_requery_blocked    the same re-query by copying the parent
//                            epoch's PropagationState and advancing it
//                            through the snapshot's dirty-row delta
//
// Speedups are ratios of two timings on one machine, so the committed
// baseline (bench/baselines/BENCH_propagation.json) transfers across
// hosts; the CI gate compares ratios, not absolute ns_per_op.
//
//   bench_serve_propagation [output.json]  (default: BENCH_propagation.json)

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/index.h"
#include "core/propagation.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "data/dataset.h"
#include "eval/reporting.h"
#include "labeler/labeler.h"
#include "serve/score_cache.h"
#include "serve/snapshot.h"
#include "util/timer.h"

namespace tasti {
namespace {

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
  const char* out_path = argc > 1 ? argv[1] : "BENCH_propagation.json";

  // A serving-scale index: enough records that propagation dominates, a
  // rep count large enough that a 32-rep crack dirties a modest fraction
  // of the rows (the regime the incremental path is built for). Pretrained
  // embeddings skip triplet training — it has no bearing on propagation.
  const size_t kRecords = 20000;
  data::DatasetOptions ds_opts;
  ds_opts.num_records = kRecords;
  ds_opts.seed = 7;
  data::Dataset ds = data::MakeNightStreet(ds_opts);

  core::IndexOptions opts;
  opts.use_triplet_training = false;
  opts.num_representatives = 1000;
  opts.embedding_dim = 32;
  opts.k = 5;
  opts.seed = 5;
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  core::TastiIndex index = core::TastiIndex::Build(ds, &adapter, opts);
  core::CountScorer cars(data::ObjectClass::kCar);
  const core::PropagationMode mode = core::PropagationMode::kNumeric;

  std::vector<Row> rows;
  const size_t dim = opts.embedding_dim;

  // --- repeated scorer: 16 queries of the same (scorer, epoch) ---
  {
    serve::IndexSnapshot snap =
        serve::IndexSnapshot::FromIndexAndTakeDelta(&index, 1, 0);
    const size_t kQueries = 16;
    rows.push_back({"repeated_scorer_scalar", kRecords, dim, MedianNsPerOp([&] {
                      for (size_t q = 0; q < kQueries; ++q) {
                        core::PropagationState state;
                        core::ComputeProxyState(snap.View(), cars, mode, {},
                                                &state);
                        asm volatile("" ::"r"(state.scores.data()));
                      }
                    })});
    rows.push_back({"repeated_scorer_blocked", kRecords, dim,
                    MedianNsPerOp([&] {
                      serve::ScoreCache cache;  // cold: 1 full + 15 hits
                      for (size_t q = 0; q < kQueries; ++q) {
                        auto state =
                            cache.GetOrCompute(snap, cars, mode, nullptr);
                        asm volatile("" ::"r"(state->scores.data()));
                      }
                    })});
  }

  // --- crack then re-query: advance one epoch vs recompute from scratch ---
  {
    // Parent epoch state for the warm scorer.
    index.TakeDelta();
    core::PropagationState parent;
    core::ComputeProxyState(index.View(), cars, mode, {}, &parent);

    // Crack 32 records (a typical per-query annotation batch).
    std::vector<size_t> records;
    std::vector<data::LabelerOutput> labels;
    for (size_t r = 0; r < ds.size() && records.size() < 32; ++r) {
      if (!index.IsRepresentative(r)) {
        records.push_back(r);
        labels.push_back(ds.ground_truth[r]);
      }
    }
    index.CrackFromLabels(records, labels);
    serve::IndexSnapshot snap =
        serve::IndexSnapshot::FromIndexAndTakeDelta(&index, 2, 1);
    if (snap.delta_full) {
      std::fprintf(stderr, "crack unexpectedly produced a full delta\n");
      return 1;
    }
    eval::Diag("crack delta: %zu dirty rows of %zu records",
               snap.dirty_rows.size(), snap.num_records);

    rows.push_back({"crack_requery_scalar", kRecords, dim, MedianNsPerOp([&] {
                      core::PropagationState state;
                      core::ComputeProxyState(snap.View(), cars, mode, {},
                                              &state);
                      asm volatile("" ::"r"(state.scores.data()));
                    })});
    rows.push_back({"crack_requery_blocked", kRecords, dim, MedianNsPerOp([&] {
                      core::PropagationState state = parent;
                      core::UpdateProxyState(snap.View(), cars,
                                             snap.dirty_rows, snap.dirty_reps,
                                             &state);
                      asm volatile("" ::"r"(state.scores.data()));
                    })});
  }

  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out,
                 "  {\"kernel\": \"%s\", \"n\": %zu, \"d\": %zu, "
                 "\"ns_per_op\": %.1f}%s\n",
                 rows[i].kernel.c_str(), rows[i].n, rows[i].d,
                 rows[i].ns_per_op, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);

  for (size_t i = 0; i + 1 < rows.size(); i += 2) {
    eval::Diag("%-24s %14.0f ns/op", rows[i].kernel.c_str(),
               rows[i].ns_per_op);
    eval::Diag("%-24s %14.0f ns/op  (%.2fx)", rows[i + 1].kernel.c_str(),
               rows[i + 1].ns_per_op,
               rows[i].ns_per_op / rows[i + 1].ns_per_op);
  }
  eval::Diag("wrote %s", out_path);
  return 0;
}
