#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

/// \file workload.h
/// What the three workloads share: generated inputs, the scorer set, the
/// per-round samples every end-to-end metric is computed from, and the
/// output checks.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/topk.h"
#include "core/index.h"
#include "core/scorer.h"
#include "data/dataset.h"
#include "decorators.h"
#include "serve/server.h"
#include "trace.h"

namespace perfbench {

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// Thread counts of the run, recorded with every result.
struct Threads {
  size_t clients = 1;
  size_t workers = 0;
  size_t dispatch = 0;
};

/// {"nproc":..,"clients":..,...} describing the host and the build.
std::string HostJson(const Args& args, const Threads& threads);

/// Seed of round `round` of a run: every round draws its own dataset and
/// query seeds, so a run's medians average over several datasets.
inline uint64_t RoundSeed(uint64_t seed, size_t round) {
  return seed * 1000 + round;
}

/// The generated inputs of one seed. `full` holds the records the system is
/// built over followed by a pool of fresh records for appends; `base` is
/// its prefix the system sees at set-up.
struct Inputs {
  tasti::data::Dataset full;
  tasti::data::Dataset base;
};
Inputs MakeInputs(size_t records, size_t append_pool, uint64_t seed);

/// Owns the workload's scorers, each wrapped in a CountingScorer, with its
/// exact scores over the base records (ground truth for the checks).
class ScorerSet {
 public:
  ScorerSet(const tasti::data::Dataset* base, bool timing)
      : base_(base), timing_(timing) {}

  /// Adds a scorer; returns the decorator the workload hands the library.
  const CountingScorer* Add(std::unique_ptr<tasti::core::Scorer> scorer);
  /// Exact scores of a decorator returned by Add().
  const std::vector<double>& Exact(const tasti::core::Scorer* counted) const;
  size_t TotalCalls() const;
  /// Times every decorator's calls from now on (call quiescent).
  void SetTiming(bool on);
  double TotalBusySeconds() const;

 private:
  struct Entry {
    std::unique_ptr<tasti::core::Scorer> inner;
    std::unique_ptr<CountingScorer> counted;
    std::vector<double> exact;
  };
  const tasti::data::Dataset* base_;
  bool timing_;  // applied to scorers added later
  std::vector<Entry> entries_;
};

/// What one round (set-up plus timed phase) measured.
struct RoundSample {
  double setup_s = 0.0;
  size_t setup_calls = 0;  ///< oracle calls during set-up
  size_t queries = 0;      ///< completed in the timed phase
  double wall_s = 0.0;     ///< timed phase wall time
  double cpu_s = 0.0;      ///< process user+sys CPU in the timed phase
  size_t query_calls = 0;  ///< oracle calls in the timed phase
  std::vector<double> latencies_ms;
  std::vector<double> append_ms;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Output of a workload run.
struct RunResult {
  std::vector<Metric> end_to_end;  ///< measured with tracing off
  std::vector<Metric> per_layer;   ///< from the traced run (trace mode only)
  size_t attempted = 0;
  size_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;  ///< why a check failed
  std::vector<std::string> notes;     ///< printed next to the metrics
  Threads threads;
};

/// Rounds until `seconds` have passed, but at least `min_rounds` and at most
/// `max_rounds`; bounding the count keeps the tail percentile on one rung.
struct RoundPolicy {
  double seconds = 10.0;
  size_t min_rounds = 3;
  size_t max_rounds = 6;
};
template <typename Fn>
std::vector<RoundSample> RunRounds(const RoundPolicy& policy, Fn run_round);

/// The end-to-end metrics over a run's rounds: setup_s, setup_oracle_calls,
/// queries_per_s, latency_p50_ms, latency_tail_ms, oracle_calls_per_query,
/// cpu_s_per_query, peak_rss_mb (failed_frac and append_p50_ms are added by
/// the caller). Adds the tail percentile and sample count to `notes`.
std::vector<Metric> EndToEndMetrics(const std::vector<RoundSample>& rounds,
                                    std::vector<std::string>* notes);

/// Per-query output checks. Feed every response through Check(); Finish()
/// applies the guarantee-rate test to each query kind and folds everything
/// into `result`.
class Checker {
 public:
  explicit Checker(double confidence) : confidence_(confidence) {}

  /// `scorers` holds the spec's scorers and their ground truth.
  void Check(const tasti::serve::QuerySpec& spec,
             const tasti::serve::QueryResponse& response,
             const ScorerSet& scorers);
  /// Records one failed operation that is not a query answer (an append, a
  /// ledger mismatch, a replay mismatch).
  void Fail(const std::string& problem);
  /// Counts one attempted operation that is not a query (an append).
  void Attempt() { ++attempted_; }
  void Finish(RunResult* result) const;

 private:
  struct Tally {
    size_t trials = 0;
    size_t misses = 0;
  };
  double confidence_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::map<std::string, Tally> guarantees_;  // by query kind
  std::vector<std::string> problems_;
};

/// Digest of a response's answer payload (bit-exact comparisons).
uint64_t AnswerDigest(const tasti::serve::QueryResponse& response);
/// FNV-1a over bytes, chained from `seed`.
uint64_t HashBytes(const void* data, size_t size,
                   uint64_t seed = 1469598103934665603ULL);

/// Process user+sys CPU seconds so far.
double CpuSeconds();
/// Peak resident memory of the process, MiB.
double PeakRssMb();
double SecondsSince(int64_t start_ns);

/// Median of a numeric field over rounds.
double MedianOf(const std::vector<RoundSample>& rounds,
                double (*field)(const RoundSample&));

/// TastiIndex::Build replayed step by step through the layers' public
/// functions (embed::TrainTripletEmbedder, Embedder::Embed,
/// cluster::MixedFpfRandomSelection, the representative TryLabel loop,
/// cluster::ComputeTopK) with the seeds and options Build uses, each step
/// in its own span inside one "bench.window".
struct BuildReplay {
  tasti::nn::Matrix embeddings;
  std::vector<size_t> reps;
  std::vector<tasti::data::LabelerOutput> rep_labels;
  tasti::cluster::TopKDistances topk;
  size_t oracle_calls = 0;
  bool labels_ok = true;
};
BuildReplay ReplayBuild(const tasti::data::Dataset& dataset,
                        const tasti::core::IndexOptions& options,
                        tasti::labeler::FallibleLabeler* oracle,
                        Tracer* tracer);
/// The pieces of `replay` that differ from `index` (empty: bit-identical).
std::vector<std::string> CompareBuild(const BuildReplay& replay,
                                      const tasti::core::TastiIndex& index);

/// Standard deviation of `values` over the records where `where` (if
/// given) is >= 0.5. Workloads set aggregate error targets as a fraction of
/// it, so the sample an estimate needs does not swing with the seed's data.
double StdDev(const std::vector<double>& values,
              const std::vector<double>* where = nullptr);

/// Value of the metric called `name` (0 when absent).
double MetricValue(const std::vector<Metric>& metrics, const std::string& name);

/// Every per-layer metric a traced run reports, with its unit, in output
/// order. A workload that has no such layer reports 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerCatalog();
/// The end-to-end metrics every workload reports in its result line.
const std::vector<std::string>& EndToEndCatalog();

// --- The workloads (session_workload.cc, serve_workloads.cc) ---

RunResult RunSessionWorkload(const Args& args);
/// `remote`: serve_remote (2 ms oracle, pretrained embeddings, no WAL);
/// otherwise serve_write (0.1 ms oracle, triplet training, WAL, appends).
RunResult RunServeWorkload(const Args& args, bool remote);

// --- Template definitions ---

template <typename Fn>
std::vector<RoundSample> RunRounds(const RoundPolicy& policy, Fn run_round) {
  std::vector<RoundSample> rounds;
  const int64_t start = NowNs();
  while (rounds.size() < policy.max_rounds) {
    rounds.push_back(run_round(rounds.size()));
    if (rounds.size() >= policy.min_rounds &&
        SecondsSince(start) >= policy.seconds) {
      break;
    }
  }
  return rounds;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
