// Emits BENCH_shard.json: {kernel, n, d, ns_per_op} rows showing what
// sharding buys — construction parallelism and shard-local crack
// republish cost.
//
// Gated pair (bench_compare.py compares the scalar/blocked ratio, which is
// a same-machine ratio and therefore transfers across hosts):
//
//   crack_republish_scalar   crack a 32-record batch into the monolithic
//                            K=1 index: every added representative updates
//                            the min-k lists of all N records
//   crack_republish_blocked  crack the same-size batch into shard 0's
//                            index of a K=4 split (shard-local ids): the
//                            republish touches ~N/4 records, so the ratio
//                            tracks K
//
// Informational rows (absolute wall time; presence-checked only, since
// construction speedup depends on core count):
//
//   construction_k1          monolithic build wall time (ns per record)
//   construction_k4          4-shard parallel build wall time (ns/record)
//
// The shards are built the way ShardedServer builds them: SliceDataset
// slices, one ShardLabelerView per shard, ShardIndexOptions per shard, and
// one ParallelFor over the shards.
//
//   bench_shard [output.json]  (default: BENCH_shard.json)

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/index.h"
#include "core/partition.h"
#include "data/dataset.h"
#include "eval/reporting.h"
#include "labeler/labeler.h"
#include "shard/sharded_server.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tasti {
namespace {

/// Median of 5 timed repetitions of fn(rep) in ns. Unlike the throughput
/// benches this times single calls: a crack mutates the index, so each
/// repetition needs a distinct record batch (TastiIndex is move-only and
/// cannot be copied back to a pristine state per call).
double MedianNsPerCall(size_t reps, const std::function<void(size_t)>& fn) {
  std::vector<double> samples;
  for (size_t rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    fn(rep);
    samples.push_back(timer.Seconds() * 1e9);
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
  const char* out_path = argc > 1 ? argv[1] : "BENCH_shard.json";

  // Large enough that per-crack min-k updates dominate and the K=1 / K=4
  // republish costs separate cleanly; pretrained embeddings skip triplet
  // training, which is irrelevant to both measurements.
  const size_t kRecords = 16000;
  const size_t kShards = 4;
  data::DatasetOptions ds_opts;
  ds_opts.num_records = kRecords;
  ds_opts.seed = 7;
  data::Dataset ds = data::MakeNightStreet(ds_opts);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);

  core::IndexOptions index_opts;
  index_opts.use_triplet_training = false;
  index_opts.num_representatives = 800;
  index_opts.embedding_dim = 32;
  index_opts.k = 5;
  index_opts.seed = 5;

  std::vector<Row> rows;
  const size_t dim = index_opts.embedding_dim;

  // --- construction: monolithic vs parallel sharded build ---
  WallTimer mono_timer;
  core::TastiIndex mono = core::TastiIndex::Build(ds, &adapter, index_opts);
  const double mono_seconds = mono_timer.Seconds();

  const core::Partitioner partitioner(ds.size(), kShards);
  std::vector<data::Dataset> slices;
  for (size_t s = 0; s < kShards; ++s) {
    slices.push_back(shard::SliceDataset(ds, partitioner.ShardBegin(s),
                                         partitioner.ShardEnd(s), s));
  }
  std::vector<core::TastiIndex> shards(kShards);
  WallTimer shard_timer;
  std::vector<std::unique_ptr<shard::ShardLabelerView>> views;
  for (size_t s = 0; s < kShards; ++s) {
    views.push_back(std::make_unique<shard::ShardLabelerView>(
        &adapter, partitioner.ShardBegin(s), partitioner.ShardSize(s)));
  }
  // ParallelFor workers mark themselves in-pool, so each shard's inner
  // embedding/distance parallelism runs inline on its worker.
  ParallelFor(
      0, kShards,
      [&](size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) {
          shards[s] = core::TastiIndex::Build(
              slices[s], views[s].get(),
              shard::ShardIndexOptions(index_opts, s, kShards));
        }
      },
      /*min_shard_size=*/1);
  const double shard_seconds = shard_timer.Seconds();
  rows.push_back({"construction_k1", kRecords, dim,
                  mono_seconds * 1e9 / static_cast<double>(kRecords)});
  rows.push_back({"construction_k4", kRecords, dim,
                  shard_seconds * 1e9 / static_cast<double>(kRecords)});
  eval::Diag("construction: K=1 %.2fs, K=%zu %.2fs (%.2fx; core-bound, "
             "not gated)",
             mono_seconds, kShards, shard_seconds,
             mono_seconds / shard_seconds);

  // --- crack republish: full-index vs shard-local min-k update ---
  // Each timed call cracks a fresh 32-record batch (annotation batches of
  // one query); both sides get the same batch count and size, and both
  // batches live in shard 0's range, whose local ids equal the global ones.
  const size_t kBatches = 9;
  const size_t shard0_end = partitioner.ShardEnd(0);
  core::TastiIndex& shard0 = shards[0];
  std::vector<std::vector<size_t>> mono_batches;
  std::vector<std::vector<size_t>> shard_batches;
  {
    std::vector<size_t> current;
    for (size_t r = 0; r < shard0_end; ++r) {
      if (mono.IsRepresentative(r) || shard0.IsRepresentative(r)) continue;
      current.push_back(r);
      if (current.size() == 32 * 2) {
        std::vector<size_t> a(current.begin(), current.begin() + 32);
        std::vector<size_t> b(current.begin() + 32, current.end());
        mono_batches.push_back(a);
        shard_batches.push_back(b);
        current.clear();
        if (mono_batches.size() == 2 * kBatches) break;
      }
    }
  }
  if (mono_batches.size() < kBatches) {
    std::fprintf(stderr, "not enough non-representative records\n");
    return 1;
  }
  auto labels_for = [&](const std::vector<size_t>& records) {
    std::vector<data::LabelerOutput> labels;
    labels.reserve(records.size());
    for (size_t r : records) labels.push_back(ds.ground_truth[r]);
    return labels;
  };

  rows.push_back({"crack_republish_scalar", kRecords, dim,
                  MedianNsPerCall(kBatches, [&](size_t rep) {
                    mono.CrackFromLabels(mono_batches[rep],
                                         labels_for(mono_batches[rep]));
                  })});
  rows.push_back({"crack_republish_blocked", kRecords, dim,
                  MedianNsPerCall(kBatches, [&](size_t rep) {
                    shard0.CrackFromLabels(shard_batches[rep],
                                           labels_for(shard_batches[rep]));
                  })});

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

  eval::Diag("%-24s %14.0f ns/op", rows[2].kernel.c_str(), rows[2].ns_per_op);
  eval::Diag("%-24s %14.0f ns/op  (%.2fx: republish scales with shard "
             "size, not index size)",
             rows[3].kernel.c_str(), rows[3].ns_per_op,
             rows[2].ns_per_op / rows[3].ns_per_op);
  eval::Diag("wrote %s", out_path);
  return 0;
}
