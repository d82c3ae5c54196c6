#include "workload.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <thread>

#include "cluster/fpf.h"
#include "core/proxy.h"
#include "embed/pretrained.h"
#include "embed/triplet_trainer.h"
#include "labeler/label_codec.h"
#include "labeler/resilient.h"
#include "queries/supg.h"
#include "stats.h"
#include "util/random.h"

namespace perfbench {

using tasti::serve::QueryKind;
using tasti::serve::QueryResponse;
using tasti::serve::QuerySpec;

std::string HostJson(const Args& args, const Threads& threads) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\":%u,\"clients\":%zu,\"workers\":%zu,"
                "\"dispatch_threads\":%zu,\"compiler\":\"%s\","
                "\"build_type\":\"%s\",\"commit\":\"%s\","
                "\"source_digest\":\"%s\",\"workload\":\"%s\",\"seed\":%llu,"
                "\"seconds\":%g}",
                std::thread::hardware_concurrency(), threads.clients,
                threads.workers, threads.dispatch, PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, args.commit.c_str(),
                args.source_digest.c_str(), args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds);
  return buf;
}

Inputs MakeInputs(size_t records, size_t append_pool, uint64_t seed) {
  tasti::data::DatasetOptions options;
  options.num_records = records + append_pool;
  options.seed = seed;
  Inputs inputs;
  inputs.full = tasti::data::MakeNightStreet(options);
  inputs.base.name = inputs.full.name;
  inputs.base.modality = inputs.full.modality;
  inputs.base.closeness = inputs.full.closeness;
  inputs.base.classes = inputs.full.classes;
  inputs.base.ground_truth.assign(inputs.full.ground_truth.begin(),
                                  inputs.full.ground_truth.begin() + records);
  inputs.base.features = inputs.full.features.RowSlice(0, records);
  return inputs;
}

const CountingScorer* ScorerSet::Add(
    std::unique_ptr<tasti::core::Scorer> scorer) {
  Entry entry;
  entry.exact = tasti::core::ExactScores(*base_, *scorer);
  entry.counted = std::make_unique<CountingScorer>(scorer.get(), timing_);
  entry.inner = std::move(scorer);
  entries_.push_back(std::move(entry));
  return entries_.back().counted.get();
}

const std::vector<double>& ScorerSet::Exact(
    const tasti::core::Scorer* counted) const {
  for (const Entry& entry : entries_) {
    if (entry.counted.get() == counted) return entry.exact;
  }
  std::fprintf(stderr, "ScorerSet::Exact: unknown scorer\n");
  std::abort();
}

size_t ScorerSet::TotalCalls() const {
  size_t calls = 0;
  for (const Entry& entry : entries_) calls += entry.counted->calls();
  return calls;
}

void ScorerSet::SetTiming(bool on) {
  timing_ = on;
  for (Entry& entry : entries_) entry.counted->set_timing(on);
}

double ScorerSet::TotalBusySeconds() const {
  double seconds = 0.0;
  for (const Entry& entry : entries_) seconds += entry.counted->busy_seconds();
  return seconds;
}

std::vector<Metric> EndToEndMetrics(const std::vector<RoundSample>& rounds,
                                    std::vector<std::string>* notes) {
  std::vector<double> latencies;
  size_t queries = 0;
  size_t query_calls = 0;
  for (const RoundSample& round : rounds) {
    latencies.insert(latencies.end(), round.latencies_ms.begin(),
                     round.latencies_ms.end());
    queries += round.queries;
    query_calls += round.query_calls;
  }
  const TailChoice tail = ChooseTail(latencies.size());
  char note[160];
  std::snprintf(note, sizeof(note),
                "latency_tail_ms is p%g of %zu samples (%zu beyond); %zu rounds",
                tail.percentile, latencies.size(), tail.beyond, rounds.size());
  notes->push_back(note);
  const double q = static_cast<double>(std::max<size_t>(queries, 1));
  return {
      {"setup_s", MedianOf(rounds, [](const RoundSample& r) { return r.setup_s; }),
       "s"},
      {"setup_oracle_calls",
       MedianOf(rounds,
                [](const RoundSample& r) {
                  return static_cast<double>(r.setup_calls);
                }),
       "calls"},
      {"queries_per_s",
       MedianOf(rounds,
                [](const RoundSample& r) {
                  return r.wall_s > 0.0 ? static_cast<double>(r.queries) / r.wall_s
                                        : 0.0;
                }),
       "1/s"},
      {"latency_p50_ms", Median(latencies), "ms"},
      {"latency_tail_ms", Percentile(latencies, tail.percentile), "ms"},
      {"oracle_calls_per_query", static_cast<double>(query_calls) / q, "calls"},
      {"cpu_s_per_query",
       MedianOf(rounds,
                [](const RoundSample& r) {
                  return r.queries > 0 ? r.cpu_s / static_cast<double>(r.queries)
                                       : 0.0;
                }),
       "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
}

namespace {

double PrefixMean(const std::vector<double>& values, size_t n) {
  return std::accumulate(values.begin(), values.begin() + n, 0.0) /
         static_cast<double>(n);
}

}  // namespace

void Checker::Check(const QuerySpec& spec, const QueryResponse& response,
                    const ScorerSet& scorers) {
  ++attempted_;
  const std::string kind = tasti::serve::QueryKindName(spec.kind);
  if (!response.status.ok() || response.degraded) {
    ++failed_;
    problems_.push_back(kind + " returned " + response.status.ToString() +
                        (response.degraded ? " (degraded)" : ""));
    return;
  }
  const std::vector<double>& exact = scorers.Exact(spec.scorer);
  const size_t n = exact.size();
  auto guarantee = [&](bool held) {
    Tally& tally = guarantees_[kind];
    ++tally.trials;
    if (!held) ++tally.misses;
  };
  switch (spec.kind) {
    case QueryKind::kAggregate: {
      const double truth = PrefixMean(exact, n);
      const auto& r = response.aggregate;
      guarantee(std::fabs(r.estimate - truth) <= r.half_width + 1e-12);
      break;
    }
    case QueryKind::kAggregateWhere: {
      const std::vector<double>& stat = scorers.Exact(spec.statistic);
      double sum = 0.0;
      size_t matches = 0;
      for (size_t i = 0; i < n; ++i) {
        if (exact[i] >= 0.5) {
          sum += stat[i];
          ++matches;
        }
      }
      const double truth = matches == 0 ? 0.0 : sum / static_cast<double>(matches);
      const auto& r = response.aggregate_where;
      guarantee(std::fabs(r.estimate - truth) <= r.half_width + 1e-12);
      break;
    }
    case QueryKind::kSupgRecall:
      guarantee(tasti::queries::AchievedRecall(response.supg.selected, exact) >=
                spec.target);
      break;
    case QueryKind::kSupgPrecision:
      guarantee(tasti::queries::AchievedPrecision(response.supg.selected,
                                                  exact) >= spec.target);
      break;
    case QueryKind::kThresholdSelect:
      for (size_t record : response.select.selected) {
        if (record >= n) {
          ++failed_;
          problems_.push_back("threshold_select returned record out of range");
          return;
        }
      }
      break;
    case QueryKind::kLimit: {
      const auto& r = response.limit;
      bool ok = r.satisfied && r.found.size() == spec.want;
      for (size_t record : r.found) ok = ok && record < n && exact[record] >= 0.5;
      if (!ok) {
        ++failed_;
        problems_.push_back("limit returned " + std::to_string(r.found.size()) +
                            " records, not all matching " + spec.scorer->Name());
      }
      break;
    }
  }
}

void Checker::Fail(const std::string& problem) {
  ++failed_;
  problems_.push_back(problem);
}

void Checker::Finish(RunResult* result) const {
  result->attempted += attempted_;
  result->failed += failed_;
  result->problems.insert(result->problems.end(), problems_.begin(),
                          problems_.end());
  for (const auto& [kind, tally] : guarantees_) {
    char note[160];
    std::snprintf(note, sizeof(note),
                  "%s guarantee held in %zu of %zu queries at confidence %.2f",
                  kind.c_str(), tally.trials - tally.misses, tally.trials,
                  confidence_);
    result->notes.push_back(note);
    if (!GuaranteeRateOk(tally.trials, tally.misses, confidence_)) {
      result->failed += tally.misses;
      result->problems.push_back(std::string("miss rate too high: ") + note);
    }
  }
  if (result->failed > 0) result->correct = false;
}

uint64_t HashBytes(const void* data, size_t size, uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t AnswerDigest(const QueryResponse& response) {
  uint64_t h = HashBytes(&response.kind, sizeof(response.kind));
  auto mix = [&h](const auto& value) { h = HashBytes(&value, sizeof(value), h); };
  auto mix_vec = [&h](const std::vector<size_t>& v) {
    h = HashBytes(v.data(), v.size() * sizeof(size_t), h);
  };
  switch (response.kind) {
    case QueryKind::kAggregate:
      mix(response.aggregate.estimate);
      mix(response.aggregate.half_width);
      mix(response.aggregate.labeler_invocations);
      break;
    case QueryKind::kAggregateWhere:
      mix(response.aggregate_where.estimate);
      mix(response.aggregate_where.half_width);
      mix(response.aggregate_where.labeler_invocations);
      break;
    case QueryKind::kSupgRecall:
    case QueryKind::kSupgPrecision:
      mix(response.supg.threshold);
      mix(response.supg.labeler_invocations);
      mix_vec(response.supg.selected);
      break;
    case QueryKind::kThresholdSelect:
      mix(response.select.threshold);
      mix(response.select.labeler_invocations);
      mix_vec(response.select.selected);
      break;
    case QueryKind::kLimit:
      mix(response.limit.labeler_invocations);
      mix_vec(response.limit.found);
      break;
  }
  return h;
}

double CpuSeconds() {
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

BuildReplay ReplayBuild(const tasti::data::Dataset& dataset,
                        const tasti::core::IndexOptions& options,
                        tasti::labeler::FallibleLabeler* oracle,
                        Tracer* tracer) {
  using namespace tasti;
  BuildReplay out;
  ScopedSpan window(tracer, "bench.window");
  const size_t calls_before = oracle->invocations();
  labeler::CachingFallibleLabeler build_cache(oracle);
  Rng rng(options.seed);
  const embed::PretrainedEmbedder pretrained(dataset.feature_dim(),
                                             options.embedding_dim,
                                             options.seed ^ 0xA5A5A5A5ULL);
  std::unique_ptr<embed::Embedder> trained;
  const embed::Embedder* embedder = &pretrained;
  if (options.use_triplet_training) {
    ScopedSpan span(tracer, "embed.triplet_train");
    embed::TripletTrainOptions train;
    train.num_training_records = options.num_training_records;
    train.embedding_dim = options.embedding_dim;
    train.hidden_dim = options.hidden_dim;
    train.margin = options.margin;
    train.epochs = options.epochs;
    train.batch_size = options.batch_size;
    train.learning_rate = options.learning_rate;
    train.use_fpf_mining = options.use_fpf_mining;
    train.seed = options.seed * 1315423911ULL + 1;
    labeler::BestEffortLabeler best_effort(
        &build_cache, labeler::DefaultLabelFor(dataset.modality));
    trained = embed::TrainTripletEmbedder(dataset.features, pretrained,
                                          &best_effort, dataset.closeness,
                                          train)
                  .embedder;
    embedder = trained.get();
  }
  {
    ScopedSpan span(tracer, "embed.embed");
    out.embeddings = embedder->Embed(dataset.features);
  }
  {
    ScopedSpan span(tracer, "cluster.select_reps");
    out.reps = cluster::MixedFpfRandomSelection(out.embeddings,
                                                options.num_representatives,
                                                options.random_rep_fraction,
                                                &rng);
  }
  {
    ScopedSpan span(tracer, "labeler.annotate_reps");
    out.rep_labels.reserve(out.reps.size());
    for (size_t record : out.reps) {
      Result<data::LabelerOutput> label = build_cache.TryLabel(record);
      out.labels_ok = out.labels_ok && label.ok();
      out.rep_labels.push_back(label.ok() ? std::move(label).value()
                                          : labeler::DefaultLabelFor(
                                                dataset.modality));
    }
  }
  {
    ScopedSpan span(tracer, "cluster.min_k");
    out.topk = cluster::ComputeTopK(out.embeddings,
                                    out.embeddings.GatherRows(out.reps),
                                    options.k);
  }
  out.oracle_calls = oracle->invocations() - calls_before;
  return out;
}

namespace {

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

}  // namespace

std::vector<std::string> CompareBuild(const BuildReplay& replay,
                                      const tasti::core::TastiIndex& index) {
  std::vector<std::string> differ;
  const tasti::nn::Matrix& built = replay.embeddings;
  if (built.rows() != index.embeddings().rows() ||
      built.cols() != index.embeddings().cols() ||
      std::memcmp(built.data(), index.embeddings().data(),
                  built.size() * sizeof(float)) != 0) {
    differ.push_back("embeddings");
  }
  if (replay.reps != index.rep_record_ids()) differ.push_back("representatives");
  std::string replay_labels;
  std::string index_labels;
  for (const auto& label : replay.rep_labels) {
    tasti::labeler::EncodeLabel(&replay_labels, label);
  }
  for (const auto& label : index.rep_labels()) {
    tasti::labeler::EncodeLabel(&index_labels, label);
  }
  if (!replay.labels_ok || replay_labels != index_labels) {
    differ.push_back("representative labels");
  }
  if (!SameBytes(replay.topk.rep_ids, index.topk().rep_ids) ||
      !SameBytes(replay.topk.distances, index.topk().distances)) {
    differ.push_back("min-k lists");
  }
  return differ;
}

double StdDev(const std::vector<double>& values,
              const std::vector<double>* where) {
  double sum = 0.0;
  double sum_sq = 0.0;
  double n = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (where != nullptr && (*where)[i] < 0.5) continue;
    sum += values[i];
    sum_sq += values[i] * values[i];
    n += 1.0;
  }
  if (n < 2.0) return 0.0;
  const double mean = sum / n;
  return std::sqrt(std::max(0.0, sum_sq / n - mean * mean));
}

double MetricValue(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerCatalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"embed.triplet_train_s", "s"},
      {"embed.embed_s", "s"},
      {"cluster.select_reps_s", "s"},
      {"labeler.annotate_reps_s", "s"},
      {"cluster.min_k_s", "s"},
      {"labeler.build_calls", "calls"},
      {"core.propagate_s", "s"},
      {"core.propagate_calls", "count"},
      {"core.scorer_calls", "calls"},
      {"core.scorer_s", "s"},
      {"queries.algorithm_s", "s"},
      {"cluster.crack_s", "s"},
      {"cluster.crack_reps", "reps"},
      {"labeler.calls", "calls"},
      {"labeler.busy_s", "s"},
      {"labeler.inflight_mean", "calls"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.queue_wait_ms_tail", "ms"},
      {"serve.execute_ms_p50", "ms"},
      {"serve.scheduler.logical_requests", "calls"},
      {"serve.scheduler.physical_calls", "calls"},
      {"serve.scheduler.cache_hits", "calls"},
      {"serve.scheduler.dedup_hits", "calls"},
      {"serve.scheduler.batches", "count"},
      {"serve.scheduler.mean_batch", "calls"},
      {"serve.score_cache.hits", "count"},
      {"serve.score_cache.delta_hits", "count"},
      {"serve.score_cache.full_computes", "count"},
      {"serve.score_cache.delta_rows", "rows"},
      {"serve.score_cache.evictions", "count"},
      {"serve.epochs_published", "count"},
      {"serve.cracked_reps", "reps"},
      {"serve.append_ms", "ms"},
      {"durable.syncs", "count"},
      {"durable.wal_bytes", "bytes"},
      {"durable.checkpoints", "count"},
      {"trace.unaccounted_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  return catalog;
}

const std::vector<std::string>& EndToEndCatalog() {
  static const std::vector<std::string> catalog = {
      "setup_s",         "setup_oracle_calls",     "queries_per_s",
      "latency_p50_ms",  "latency_tail_ms",        "oracle_calls_per_query",
      "cpu_s_per_query", "peak_rss_mb",
  };
  return catalog;
}

double MedianOf(const std::vector<RoundSample>& rounds,
                double (*field)(const RoundSample&)) {
  std::vector<double> values;
  values.reserve(rounds.size());
  for (const RoundSample& round : rounds) values.push_back(field(round));
  return Median(std::move(values));
}

}  // namespace perfbench
