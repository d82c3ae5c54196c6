// tasti_cli: build, inspect, and query TASTI indexes from the command line
// over the bundled synthetic datasets.
//
//   tasti_cli build     --dataset night-street --records 20000
//                       --train 1000 --reps 2000 --out /tmp/ns.idx
//   tasti_cli info      --index /tmp/ns.idx
//   tasti_cli aggregate --dataset night-street --records 20000
//                       --index /tmp/ns.idx --query count --class car
//                       --error 0.07
//   tasti_cli select    --dataset night-street --records 20000
//                       --index /tmp/ns.idx --query atleast --min-count 2
//                       --recall 0.9 --budget 500
//   tasti_cli limit     --dataset night-street --records 20000
//                       --index /tmp/ns.idx --query atleast --min-count 5
//                       --want 10
//   tasti_cli workload  --dataset night-street --records 8000
//                       --trace=trace.json --metrics=metrics.json
//
// Datasets are regenerated deterministically from (--dataset, --records,
// --seed), so a saved index stays consistent with its data.
//
// Observability: every command accepts --trace=PATH (Chrome trace_event
// JSON, loadable in Perfetto). The commands that keep a per-query cost
// ledger (workload, serve-workload, monitor) also accept --metrics=PATH,
// a JSON document of that ledger and the oracle's own call count; a
// sharded run (--shards > 1) has no single ledger and rejects it. Flags
// may be written `--key value` or `--key=value`; a flag the command does
// not read is a usage error.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "core/index.h"
#include "core/index_stats.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "core/serialize.h"
#include "data/dataset.h"
#include "durable/recovery.h"
#include "eval/reporting.h"
#include "labeler/faults.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"
#include "obs/config.h"
#include "obs/live.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "serve/monitor.h"
#include "queries/aggregation.h"
#include "queries/limit.h"
#include "queries/supg.h"
#include "serve/server.h"
#include "shard/sharded_server.h"
#include "util/stats.h"
#include "util/timer.h"

namespace {

using namespace tasti;

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  long GetInt(const std::string& key, long fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : std::atol(it->second.c_str());
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : std::atof(it->second.c_str());
  }
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: tasti_cli "
      "<build|info|aggregate|select|limit|workload|serve-workload|monitor"
      "|recover> [flags]\n"
      "  A command exits 2 on a flag it does not read.\n"
      "  data:   --dataset <name> --records N --seed S (every command but "
      "info\n"
      "          and recover)\n"
      "  query:  --query <count|presence|atleast|meanx> --class "
      "<car|bus> [--min-count N]\n"
      "          (aggregate, select, limit, workload, serve-workload, "
      "monitor)\n"
      "  --trace=PATH (Chrome trace JSON; every command)\n"
      "  workload, serve-workload, monitor: --metrics=PATH (query ledger "
      "JSON;\n"
      "          not with --shards > 1)\n"
      "  build:  --train N1 --reps N2 --k K --out PATH [--pretrained]\n"
      "  info:   --index PATH\n"
      "  aggregate: --index PATH --error E --query-seed Q\n"
      "  select: --index PATH --recall R --budget B --query-seed Q\n"
      "  limit:  --index PATH --want W\n"
      "  workload: --train N1 --reps N2 --k K --error E --budget B --want W\n"
      "          --query-seed Q\n"
      "  serve-workload: --clients K --queries-per-client Q "
      "--oracle-latency-ms L\n"
      "          --train N1 --reps N2 --k K --error E --budget B --want W "
      "--query-seed Q\n"
      "          [--shards S] (S>1 serves scatter-gather over S shards: "
      "per-shard\n"
      "          indexes built in parallel, budgets split, partials "
      "merged)\n"
      "          [--serial-dispatch] [--check-speedup X] (replays a mixed "
      "workload\n"
      "          serialized vs concurrently served; reports throughput and "
      "oracle\n"
      "          savings; nonzero exit if the attribution invariant or "
      "checks fail)\n"
      "          [--skip-serial] (drops the serialized baseline)\n"
      "          [--wal-dir DIR --checkpoint-every N] (crash-safe "
      "durability:\n"
      "          WAL-log mutations with an fsync barrier per epoch "
      "publish,\n"
      "          checkpoint every N epochs, print a durability summary)\n"
      "          [--deadline-ms D --virtual-ms-per-call V] (per-query "
      "latency\n"
      "          budgets; V>0 accounts them in deterministic virtual "
      "time)\n"
      "          [--workers W --shed --shed-target-ms T --priority-mix] "
      "(load\n"
      "          shedding at admission; priority-mix rotates query "
      "classes)\n"
      "          [--partial-gather --hedge] (degraded-mode levers with "
      "--shards)\n"
      "          [--require-shed --max-deadline-overruns N] (overload-"
      "stage\n"
      "          assertions: at least one shed, at most N deadline "
      "overruns)\n"
      "  recover: --wal-dir DIR [--out PATH] (replay checkpoint + "
      "committed\n"
      "          WAL, report replay/quarantine stats, optionally save the\n"
      "          recovered index)\n"
      "  monitor: --clients K --rounds R (or --queries-per-client R) "
      "--oracle-latency-ms L\n"
      "          --train N1 --reps N2 --k K --error E --budget B --want W "
      "--query-seed Q\n"
      "          [--serial-dispatch] --frame-ms MS\n"
      "          [--shards S] (S>1 attaches one monitor per shard and "
      "exports\n"
      "          every shard's samples, labeled shard=\"<s>\")\n"
      "          --out PROM (exposition, default monitor.prom) --flight-dump "
      "PREFIX\n"
      "          --max-flight-dumps N --dump-cooldown-s S\n"
      "          --slo-latency-ms T --slo-oracle-budget C --slo-min-events "
      "N\n"
      "          --burn-threshold X --alert-cooldown-s S --drift-threshold "
      "X\n"
      "          --inject-drift N --require-alert\n"
      "          (runs a monitored serve workload printing live status "
      "frames;\n"
      "          writes Prometheus exposition + flight-recorder dumps)\n"
      "  chaos:  --faults SPEC (build, workload, monitor; e.g.\n"
      "          transient=0.1,timeout=0.05,throttle=100:8,perm-rate=0.002,"
      "seed=9)\n"
      "          --retry-attempts N --breaker-threshold N\n"
      "  datasets: night-street taipei amsterdam wikisql common-voice\n");
  return 2;
}

/// The flags each command reads, its helpers' included: LoadDataset
/// (dataset, records, seed), LoadIndex (index), MakeScorer (query, class,
/// min-count), MakeQueryMix (error, budget, want), MakeOracleStack (faults,
/// retry-attempts, breaker-threshold) and WriteObservability (trace, and
/// metrics for the commands that keep a query ledger). main() rejects any
/// other flag; tools/check_targets.py checks that Usage() names each one.
const std::map<std::string, std::set<std::string>> kCommandFlags = {
    {"build",
     {"dataset", "records", "seed", "train", "reps", "k", "pretrained", "out",
      "faults", "retry-attempts", "breaker-threshold", "trace"}},
    {"info", {"index", "trace"}},
    {"aggregate",
     {"dataset", "records", "seed", "index", "query", "class", "min-count",
      "error", "query-seed", "trace"}},
    {"select",
     {"dataset", "records", "seed", "index", "query", "class", "min-count",
      "recall", "budget", "query-seed", "trace"}},
    {"limit",
     {"dataset", "records", "seed", "index", "query", "class", "min-count",
      "want", "trace"}},
    {"workload",
     {"dataset", "records", "seed", "train", "reps", "k", "query-seed",
      "query", "class", "min-count", "error", "budget", "want", "faults",
      "retry-attempts", "breaker-threshold", "trace", "metrics"}},
    {"serve-workload",
     {"dataset", "records", "seed", "clients", "queries-per-client",
      "oracle-latency-ms", "check-speedup", "query-seed", "deadline-ms",
      "virtual-ms-per-call", "shed", "shed-target-ms", "priority-mix",
      "require-shed", "max-deadline-overruns", "train", "reps", "k", "query",
      "class", "min-count", "error", "budget", "want", "skip-serial",
      "workers", "serial-dispatch", "wal-dir", "checkpoint-every", "shards",
      "partial-gather", "hedge", "trace", "metrics"}},
    {"monitor",
     {"dataset", "records", "seed", "clients", "rounds", "queries-per-client",
      "oracle-latency-ms", "query-seed", "inject-drift", "frame-ms", "out",
      "slo-latency-ms", "slo-oracle-budget", "burn-threshold",
      "slo-min-events", "alert-cooldown-s", "flight-dump", "max-flight-dumps",
      "dump-cooldown-s", "drift-threshold", "faults", "retry-attempts",
      "breaker-threshold", "train", "reps", "k", "query", "class",
      "min-count", "error", "budget", "want", "serial-dispatch", "shards",
      "require-alert", "trace", "metrics"}},
    {"recover", {"wal-dir", "out", "trace"}},
};

/// The oracle stack behind a chaos run: simulated ground truth, optionally
/// wrapped in scheduled fault injection, then retry/breaker resilience.
/// Without --faults the stack is a plain adapter, so every call succeeds.
struct OracleStack {
  std::unique_ptr<labeler::SimulatedLabeler> sim;
  std::unique_ptr<labeler::FaultInjectingLabeler> injector;
  std::unique_ptr<labeler::FallibleAdapter> adapter;
  std::unique_ptr<labeler::ResilientLabeler> resilient;
  labeler::FallibleLabeler* oracle = nullptr;  // top of the stack
};

bool MakeOracleStack(const Args& args, const data::Dataset* dataset,
                     OracleStack* stack,
                     std::function<void(labeler::BreakerState)> on_breaker =
                         nullptr) {
  stack->sim = std::make_unique<labeler::SimulatedLabeler>(dataset);
  const std::string spec = args.Get("faults", "");
  if (spec.empty()) {
    stack->adapter =
        std::make_unique<labeler::FallibleAdapter>(stack->sim.get());
    stack->oracle = stack->adapter.get();
    return true;
  }
  Result<labeler::FaultSchedule> schedule = labeler::ParseFaultSchedule(spec);
  if (!schedule.ok()) {
    std::fprintf(stderr, "bad --faults spec: %s\n",
                 schedule.status().ToString().c_str());
    return false;
  }
  stack->injector = std::make_unique<labeler::FaultInjectingLabeler>(
      stack->sim.get(), *schedule);
  labeler::ResilientLabeler::Options ropts;
  ropts.retry.max_attempts =
      static_cast<size_t>(args.GetInt("retry-attempts", 6));
  ropts.breaker.failure_threshold =
      static_cast<size_t>(args.GetInt("breaker-threshold", 8));
  ropts.on_breaker_transition = std::move(on_breaker);
  stack->resilient = std::make_unique<labeler::ResilientLabeler>(
      stack->injector.get(), ropts);
  stack->oracle = stack->resilient.get();
  return true;
}

/// Prints the chaos report: injected fault tallies, retry/breaker
/// behavior, and (when an index is available) degraded coverage.
void PrintChaosReport(const OracleStack& stack, const core::TastiIndex* index) {
  if (stack.injector != nullptr) {
    const labeler::FaultCounts& f = stack.injector->fault_counts();
    std::printf("faults injected: %zu (transient %zu, timeout %zu, throttle "
                "%zu, corrupt %zu, crash %zu, permanent %zu) over %zu "
                "attempts\n",
                f.total(), f.transient, f.timeout, f.throttle, f.corrupt,
                f.crash, f.permanent, stack.injector->invocations());
  }
  if (stack.resilient != nullptr) {
    const labeler::ResilienceStats& s = stack.resilient->stats();
    std::printf("oracle resilience: %zu calls, %zu attempts, %zu retries, "
                "%zu failures, %zu breaker rejections, breaker opened %zu "
                "time(s)\n",
                s.calls, s.attempts, s.retries, s.failures,
                s.rejected_by_breaker, s.breaker_opens);
  }
  if (index != nullptr && index->num_failed_representatives() > 0) {
    const double coverage =
        100.0 * static_cast<double>(index->num_representatives() -
                                    index->num_failed_representatives()) /
        static_cast<double>(index->num_representatives());
    std::printf("degraded index: %zu of %zu representatives unannotated "
                "(coverage %.1f%%)\n",
                index->num_failed_representatives(),
                index->num_representatives(), coverage);
  }
}

/// Writes the files requested on the command line: the trace, and for a
/// command with a query ledger (`log` non-null) the --metrics document
/// holding that ledger. `oracle_invocations` (when >= 0) records the
/// target labeler's own counter so consumers can check the attribution
/// invariant without re-running.
int WriteObservability(const Args& args, const obs::QueryLog* log,
                       long long oracle_invocations = -1) {
  const std::string trace_path = args.Get("trace", "");
  if (!trace_path.empty()) {
    const Status status = obs::TraceRecorder::Global().WriteJson(trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("wrote trace (%zu events) to %s\n",
                obs::TraceRecorder::Global().event_count(), trace_path.c_str());
  }
  const std::string metrics_path = args.Get("metrics", "");
  if (!metrics_path.empty() && log != nullptr) {
    std::string doc = "{\n\"query_log\": ";
    doc += log->ToJson();
    if (oracle_invocations >= 0) {
      doc += ",\n\"oracle_invocations\": ";
      doc += std::to_string(oracle_invocations);
    }
    doc += "\n}\n";
    FILE* out = std::fopen(metrics_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", metrics_path.c_str());
      return 1;
    }
    std::fwrite(doc.data(), 1, doc.size(), out);
    std::fclose(out);
    std::printf("wrote metrics to %s\n", metrics_path.c_str());
  }
  return 0;
}

Result<data::DatasetId> ParseDatasetId(const std::string& name) {
  for (data::DatasetId id : data::AllDatasetIds()) {
    if (data::DatasetName(id) == name) return id;
  }
  return Status::InvalidArgument("unknown dataset: " + name);
}

data::Dataset LoadDataset(const Args& args) {
  Result<data::DatasetId> id = ParseDatasetId(args.Get("dataset", "night-street"));
  if (!id.ok()) {
    std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
    std::exit(2);
  }
  data::DatasetOptions opts;
  opts.num_records = static_cast<size_t>(args.GetInt("records", 20000));
  opts.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  return data::MakeDataset(*id, opts);
}

std::unique_ptr<core::Scorer> MakeScorer(const Args& args,
                                         const data::Dataset& dataset) {
  const std::string query = args.Get("query", "count");
  if (dataset.modality == data::Modality::kText) {
    return std::make_unique<core::PredicateCountScorer>();
  }
  if (dataset.modality == data::Modality::kSpeech) {
    return std::make_unique<core::MaleScorer>();
  }
  const std::string cls_name = args.Get("class", "car");
  const data::ObjectClass cls = cls_name == "bus" ? data::ObjectClass::kBus
                                                  : data::ObjectClass::kCar;
  if (query == "presence") return std::make_unique<core::PresenceScorer>(cls);
  if (query == "meanx") return std::make_unique<core::MeanXScorer>(cls);
  if (query == "atleast") {
    return std::make_unique<core::AtLeastCountScorer>(
        cls, static_cast<int>(args.GetInt("min-count", 2)));
  }
  return std::make_unique<core::CountScorer>(cls);
}

/// The scorers of the mixed workload. For video, selection keeps frames
/// with at least two objects of --class and the limit hunts frames with at
/// least four; text and speech reuse the dataset's scorer for all three.
struct MixScorers {
  std::unique_ptr<core::Scorer> aggregation;
  std::unique_ptr<core::Scorer> selection;
  std::unique_ptr<core::Scorer> limit_predicate;
};

MixScorers MakeMixScorers(const Args& args, const data::Dataset& dataset) {
  MixScorers scorers;
  scorers.aggregation = MakeScorer(args, dataset);
  if (dataset.modality == data::Modality::kVideo) {
    const std::string cls_name = args.Get("class", "car");
    const data::ObjectClass cls = cls_name == "bus" ? data::ObjectClass::kBus
                                                    : data::ObjectClass::kCar;
    scorers.selection = std::make_unique<core::AtLeastCountScorer>(cls, 2);
    scorers.limit_predicate =
        std::make_unique<core::AtLeastCountScorer>(cls, 4);
  } else {
    scorers.selection = MakeScorer(args, dataset);
    scorers.limit_predicate = MakeScorer(args, dataset);
  }
  return scorers;
}

/// The serving commands' query mix: client c's q-th query is kind
/// (c * per_client + q) % 5 of aggregate, recall-select, precision-select,
/// threshold-select and limit, with --error, --budget and --want. Every
/// query gets `deadline_ms`; `priority_mix` rotates the priority classes
/// the same way. The specs point into `scorers`.
std::vector<serve::QuerySpec> MakeQueryMix(const Args& args,
                                           const MixScorers& scorers,
                                           size_t clients, size_t per_client,
                                           double deadline_ms,
                                           bool priority_mix) {
  const double error = args.GetDouble("error", 0.1);
  const size_t budget = static_cast<size_t>(args.GetInt("budget", 200));
  const size_t want = static_cast<size_t>(args.GetInt("want", 5));
  std::vector<serve::QuerySpec> specs;
  for (size_t c = 0; c < clients; ++c) {
    for (size_t q = 0; q < per_client; ++q) {
      serve::QuerySpec spec;
      spec.client_id = c;
      spec.deadline_ms = deadline_ms;
      if (priority_mix) {
        spec.priority = static_cast<serve::QueryPriority>(
            (c * per_client + q) % serve::kNumQueryPriorities);
      }
      switch ((c * per_client + q) % 5) {
        case 0:
          spec.kind = serve::QueryKind::kAggregate;
          spec.scorer = scorers.aggregation.get();
          spec.error_target = error;
          break;
        case 1:
          spec.kind = serve::QueryKind::kSupgRecall;
          spec.scorer = scorers.selection.get();
          spec.target = 0.9;
          spec.budget = budget;
          break;
        case 2:
          spec.kind = serve::QueryKind::kSupgPrecision;
          spec.scorer = scorers.selection.get();
          spec.target = 0.9;
          spec.budget = budget;
          break;
        case 3:
          spec.kind = serve::QueryKind::kThresholdSelect;
          spec.scorer = scorers.selection.get();
          spec.validation_budget = budget;
          break;
        default:
          spec.kind = serve::QueryKind::kLimit;
          spec.scorer = scorers.limit_predicate.get();
          spec.want = want;
          break;
      }
      specs.push_back(spec);
    }
  }
  return specs;
}

int RunBuild(const Args& args) {
  const data::Dataset dataset = LoadDataset(args);
  core::IndexOptions opts;
  opts.num_training_records = static_cast<size_t>(args.GetInt("train", 1000));
  opts.num_representatives = static_cast<size_t>(args.GetInt("reps", 2000));
  opts.k = static_cast<size_t>(args.GetInt("k", 5));
  opts.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  opts.use_triplet_training = args.flags.count("pretrained") == 0;

  OracleStack stack;
  if (!MakeOracleStack(args, &dataset, &stack)) return 2;
  labeler::CachingFallibleLabeler cache(stack.oracle);
  const core::TastiIndex index = core::TastiIndex::Build(dataset, &cache, opts);
  std::printf("built index over %s: %zu records, %zu reps, %zu labeler calls, "
              "%.1fs compute\n",
              dataset.name.c_str(), index.num_records(),
              index.num_representatives(), stack.oracle->invocations(),
              index.build_stats().TotalSeconds());
  PrintChaosReport(stack, &index);

  const std::string out = args.Get("out", "tasti_index.bin");
  const Status save = core::IndexSerializer::Save(index, out);
  if (!save.ok()) {
    std::fprintf(stderr, "save failed: %s\n", save.ToString().c_str());
    return 1;
  }
  std::printf("saved to %s\n", out.c_str());
  return 0;
}

Result<core::TastiIndex> LoadIndex(const Args& args) {
  const std::string path = args.Get("index", "tasti_index.bin");
  return core::IndexSerializer::Load(path);
}

int RunInfo(const Args& args) {
  Result<core::TastiIndex> index = LoadIndex(args);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", core::ComputeIndexStats(*index).ToString().c_str());
  std::printf("embedder: %s\n",
              index->embedder() == nullptr ? "none (legacy file)" : "present");
  return 0;
}

int RunAggregate(const Args& args) {
  const data::Dataset dataset = LoadDataset(args);
  Result<core::TastiIndex> index = LoadIndex(args);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  const auto scorer = MakeScorer(args, dataset);
  const auto proxy = core::ComputeProxyScores(*index, *scorer);

  labeler::SimulatedLabeler simulated(&dataset);
  labeler::FallibleAdapter oracle(&simulated);
  queries::AggregationOptions opts;
  opts.error_target = args.GetDouble("error", 0.07);
  opts.seed = static_cast<uint64_t>(args.GetInt("query-seed", 7));
  const auto result =
      queries::TryEstimateMean(proxy, &oracle, *scorer, opts).value();
  std::printf("mean %s = %.4f +- %.4f (%zu labeler calls of %zu records; "
              "truth %.4f)\n",
              scorer->Name().c_str(), result.estimate, result.half_width,
              result.labeler_invocations, dataset.size(),
              Mean(core::ExactScores(dataset, *scorer)));
  return 0;
}

int RunSelect(const Args& args) {
  const data::Dataset dataset = LoadDataset(args);
  Result<core::TastiIndex> index = LoadIndex(args);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  const auto scorer = MakeScorer(args, dataset);
  const auto proxy = core::ComputeProxyScores(*index, *scorer);

  labeler::SimulatedLabeler simulated(&dataset);
  labeler::FallibleAdapter oracle(&simulated);
  queries::SupgOptions opts;
  opts.recall_target = args.GetDouble("recall", 0.9);
  opts.budget = static_cast<size_t>(args.GetInt("budget", 500));
  opts.seed = static_cast<uint64_t>(args.GetInt("query-seed", 7));
  const auto result =
      queries::TrySupgRecallSelect(proxy, &oracle, *scorer, opts).value();
  const auto truth = core::ExactScores(dataset, *scorer);
  std::printf("selected %zu records matching %s (threshold %.3f); achieved "
              "recall %.3f, FPR %.3f; %zu labeler calls\n",
              result.selected.size(), scorer->Name().c_str(), result.threshold,
              queries::AchievedRecall(result.selected, truth),
              queries::FalsePositiveRate(result.selected, truth),
              result.labeler_invocations);
  return 0;
}

int RunLimit(const Args& args) {
  const data::Dataset dataset = LoadDataset(args);
  Result<core::TastiIndex> index = LoadIndex(args);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  const auto scorer = MakeScorer(args, dataset);
  const auto ranking =
      core::ComputeProxyScores(*index, *scorer, core::PropagationMode::kLimit);

  labeler::SimulatedLabeler simulated(&dataset);
  labeler::FallibleAdapter oracle(&simulated);
  queries::LimitOptions opts;
  opts.want = static_cast<size_t>(args.GetInt("want", 10));
  const auto result =
      queries::TryLimitQuery(ranking, &oracle, *scorer, opts).value();
  std::printf("found %zu/%zu records matching %s after %zu labeler calls\n",
              result.found.size(), opts.want, scorer->Name().c_str(),
              result.labeler_invocations);
  for (size_t i = 0; i < result.found.size() && i < 10; ++i) {
    std::printf("  record %zu\n", result.found[i]);
  }
  return 0;
}

// Runs a mixed query workload through a TastiSession (a one-worker
// TastiServer): index construction (charged to the session), then aggregate, recall-select,
// precision-select, threshold-select, and limit queries, with the
// per-query cost ledger printed and exported. This is the one-command
// demonstration of the observability surface:
//
//   tasti_cli workload --dataset night-street --records 8000
//       --trace=trace.json --metrics=metrics.json
int RunWorkload(const Args& args) {
  data::DatasetOptions dataset_opts;
  const Result<data::DatasetId> id =
      ParseDatasetId(args.Get("dataset", "night-street"));
  if (!id.ok()) {
    std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
    return 2;
  }
  dataset_opts.num_records = static_cast<size_t>(args.GetInt("records", 8000));
  dataset_opts.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const data::Dataset dataset = data::MakeDataset(*id, dataset_opts);

  OracleStack stack;
  if (!MakeOracleStack(args, &dataset, &stack)) return 2;
  api::SessionOptions session_opts;
  session_opts.index.num_training_records =
      static_cast<size_t>(args.GetInt("train", 400));
  session_opts.index.num_representatives =
      static_cast<size_t>(args.GetInt("reps", 800));
  session_opts.index.k = static_cast<size_t>(args.GetInt("k", 5));
  session_opts.index.seed = dataset_opts.seed;
  session_opts.seed = static_cast<uint64_t>(args.GetInt("query-seed", 7));
  api::TastiSession session(&dataset, stack.oracle, session_opts);
  // Flags when the previous query's oracle calls failed, so degraded
  // results in the transcript are visibly marked.
  auto warn_if_degraded = [&session, &stack]() {
    if (!session.last_query_status().ok()) {
      std::printf("  (oracle failure: %s)\n",
                  session.last_query_status().ToString().c_str());
    }
    // Idle time between queries lets an open breaker cool down, like the
    // think time between real interactive queries.
    if (stack.resilient != nullptr) stack.resilient->AdvanceVirtualTime(1000.0);
  };

  const MixScorers scorers = MakeMixScorers(args, dataset);

  const double error = args.GetDouble("error", 0.07);
  const size_t budget = static_cast<size_t>(args.GetInt("budget", 400));
  const size_t want = static_cast<size_t>(args.GetInt("want", 10));

  const auto agg = session.Aggregate(*scorers.aggregation, error);
  std::printf("aggregate: %.4f +- %.4f (%zu labeler calls)\n", agg.estimate,
              agg.half_width, agg.labeler_invocations);
  warn_if_degraded();
  const auto recall_sel = session.SelectWithRecall(*scorers.selection, 0.9,
                                                    budget);
  std::printf("recall-select: %zu records (threshold %.3f)\n",
              recall_sel.selected.size(), recall_sel.threshold);
  warn_if_degraded();
  const auto precision_sel =
      session.SelectWithPrecision(*scorers.selection, 0.9, budget);
  std::printf("precision-select: %zu records (threshold %.3f)\n",
              precision_sel.selected.size(), precision_sel.threshold);
  warn_if_degraded();
  const auto threshold_sel = session.Select(*scorers.selection, budget);
  std::printf("threshold-select: %zu records (F1 %.3f on validation)\n",
              threshold_sel.selected.size(), threshold_sel.validation_f1);
  warn_if_degraded();
  const auto limit = session.Limit(*scorers.limit_predicate, want);
  std::printf("limit: found %zu/%zu after %zu labeler calls\n",
              limit.found.size(), want, limit.labeler_invocations);
  warn_if_degraded();
  if (session.representatives_repaired() > 0) {
    std::printf("repaired %zu failed representative(s) across queries\n",
                session.representatives_repaired());
  }

  std::printf("\n");
  PrintChaosReport(stack, &session.index());
  eval::PrintQueryLog(session.query_log());
  if (session.query_log().total_invocations() != stack.oracle->invocations()) {
    std::fprintf(stderr,
                 "attribution mismatch: ledger %zu vs oracle %zu calls\n",
                 session.query_log().total_invocations(),
                 stack.oracle->invocations());
    return 1;
  }
  return WriteObservability(args, &session.query_log(),
                            static_cast<long long>(stack.oracle->invocations()));
}

// Replays one mixed workload twice — serialized on a TastiSession (a
// one-worker server with serial oracle dispatch), then concurrently on a
// TastiServer with K client threads — against a
// latency-injected oracle (modeling a remote model server), and reports
// throughput, oracle-call savings from the cross-query scheduler, and the
// server-wide attribution invariant:
//
//   tasti_cli serve-workload --dataset night-street --records 6000
//       --clients 8 --oracle-latency-ms 2 --check-speedup 1.5
int RunServeWorkload(const Args& args) {
  const data::Dataset dataset = LoadDataset(args);
  const size_t clients = static_cast<size_t>(args.GetInt("clients", 8));
  const size_t per_client =
      static_cast<size_t>(args.GetInt("queries-per-client", 1));
  const double latency_ms = args.GetDouble("oracle-latency-ms", 2.0);
  const double check_speedup = args.GetDouble("check-speedup", 0.0);
  const uint64_t query_seed =
      static_cast<uint64_t>(args.GetInt("query-seed", 7));

  // Degradation levers (DESIGN.md §15): per-query deadlines, admission
  // shedding, and the sharded partial-gather/hedging paths.
  const double deadline_ms = args.GetDouble("deadline-ms", 0.0);
  const double virtual_ms_per_call =
      args.GetDouble("virtual-ms-per-call", 0.0);
  const bool shed_enabled = args.flags.count("shed") > 0;
  const double shed_target_ms = args.GetDouble("shed-target-ms", 5.0);
  const bool priority_mix = args.flags.count("priority-mix") > 0;
  const bool require_shed = args.flags.count("require-shed") > 0;
  const long max_overruns = args.GetInt("max-deadline-overruns", -1);
  // One phase-check interval of slack: a query may overshoot its budget
  // by at most the cost of the call that crossed it.
  const double overrun_slack_ms =
      virtual_ms_per_call > 0 ? virtual_ms_per_call : 50.0;

  core::IndexOptions index_opts;
  index_opts.num_training_records =
      static_cast<size_t>(args.GetInt("train", 300));
  index_opts.num_representatives =
      static_cast<size_t>(args.GetInt("reps", 500));
  index_opts.k = static_cast<size_t>(args.GetInt("k", 5));
  index_opts.seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  // The workload mix (same scorers and order for both runs).
  const MixScorers scorers = MakeMixScorers(args, dataset);
  const std::vector<serve::QuerySpec> specs = MakeQueryMix(
      args, scorers, clients, per_client, deadline_ms, priority_mix);
  const size_t total_queries = specs.size();

  // --- Serialized baseline: one query at a time on a TastiSession, which
  // is a one-worker server with serial dispatch and inline cracks ---
  labeler::SimulatedLabeler serial_sim(&dataset);
  labeler::FallibleAdapter serial_adapter(&serial_sim);
  serve::LatencyInjectingOracle serial_oracle(&serial_adapter, latency_ms);
  api::SessionOptions session_opts;
  session_opts.index = index_opts;
  session_opts.seed = query_seed;
  api::TastiSession session(&dataset, &serial_oracle, session_opts);
  session.index();  // build outside the timed window
  // --skip-serial drops the serialized baseline: the overload stage only
  // cares about shed/deadline behavior, not the throughput comparison.
  const bool skip_serial = args.flags.count("skip-serial") > 0;
  WallTimer serial_timer;
  // Distinct records each serial query asked the oracle for: what the
  // serial run pays when labels are cached per query only, the baseline
  // that cross-query sharing (label cache, dedup) must beat. The session
  // itself shares the server-wide label cache and, one query at a time,
  // can pay fewer calls than the K-worker server does.
  size_t serial_requested = 0;
  if (!skip_serial) {
    for (const serve::QuerySpec& spec : specs) {
      serial_requested += session.Execute(spec).logical_oracle_calls;
    }
  }
  const double serial_seconds = serial_timer.Seconds();
  const size_t serial_query_calls =
      session.total_labeler_invocations() - session.index_invocations();

  // --- Served: K client threads against one TastiServer ---
  labeler::SimulatedLabeler served_sim(&dataset);
  labeler::FallibleAdapter served_adapter(&served_sim);
  serve::LatencyInjectingOracle served_oracle(&served_adapter, latency_ms);
  serve::ServerOptions server_opts;
  server_opts.index = index_opts;
  server_opts.seed = query_seed;
  // --workers below --clients oversubscribes the queue — the overload
  // stage uses that to drive the shedder deterministically hard.
  server_opts.num_workers = static_cast<size_t>(
      std::max<long>(1, args.GetInt("workers", static_cast<long>(clients))));
  server_opts.max_pending = std::max<size_t>(total_queries, 1);
  server_opts.degrade.virtual_ms_per_call = virtual_ms_per_call;
  server_opts.degrade.shedder.enabled = shed_enabled;
  server_opts.degrade.shedder.target_wait_ms = shed_target_ms;
  // The latency-injected simulated oracle is thread-safe and counts one
  // invocation per call, so batches may dispatch in parallel — that
  // overlap of oracle waits is where served throughput comes from.
  server_opts.scheduler.parallel_dispatch =
      args.flags.count("serial-dispatch") == 0;
  server_opts.scheduler.dispatch_threads = std::max<size_t>(clients, 8);
  server_opts.scheduler.batch_window_ms = 0.5;
  // --wal-dir turns on crash-safe durability: cracks and epoch publishes
  // are WAL-logged with an fsync barrier per epoch, checkpointed every
  // --checkpoint-every epochs. `tasti_cli recover --wal-dir DIR` replays.
  server_opts.durability.dir = args.Get("wal-dir", "");
  server_opts.durability.checkpoint_every_epochs = static_cast<size_t>(
      std::max<long>(1, args.GetInt("checkpoint-every", 16)));

  // --shards S>1: serve the same workload scatter-gather across S shards
  // instead of one monolithic server. Per-shard indexes build in parallel,
  // each sub-query gets a proportional budget slice, and the partials
  // merge into dataset-level answers.
  const size_t shards = static_cast<size_t>(args.GetInt("shards", 1));
  if (shards > 1) {
    labeler::SimulatedLabeler sharded_sim(&dataset);
    labeler::FallibleAdapter sharded_adapter(&sharded_sim);
    serve::LatencyInjectingOracle sharded_oracle(&sharded_adapter, latency_ms);
    shard::ShardedServerOptions sharded_opts;
    sharded_opts.num_shards = shards;
    sharded_opts.server = server_opts;
    sharded_opts.partial_gather = args.flags.count("partial-gather") > 0;
    sharded_opts.hedge.enabled = args.flags.count("hedge") > 0;
    shard::ShardedServer sharded(&dataset, &sharded_oracle, sharded_opts);
    {
      const Status status = sharded.Start();
      if (!status.ok()) {
        std::fprintf(stderr, "sharded start failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
    }
    WallTimer sharded_timer;
    std::vector<std::thread> sharded_clients;
    std::atomic<size_t> sharded_failures{0};
    std::atomic<size_t> sharded_shed{0};
    std::atomic<size_t> sharded_overruns{0};
    for (size_t c = 0; c < clients; ++c) {
      sharded_clients.emplace_back([&, c] {
        for (size_t q = 0; q < per_client; ++q) {
          const shard::ShardedQueryResponse response =
              sharded.Execute(specs[c * per_client + q]);
          const serve::QueryResponse& merged = response.merged;
          if (!merged.status.ok()) {
            if (shed_enabled &&
                merged.status.code() == StatusCode::kResourceExhausted) {
              sharded_shed.fetch_add(1, std::memory_order_relaxed);
            } else {
              sharded_failures.fetch_add(1, std::memory_order_relaxed);
            }
          } else if (merged.deadline_budget_ms > 0 &&
                     merged.deadline_spent_ms >
                         merged.deadline_budget_ms + overrun_slack_ms) {
            sharded_overruns.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& thread : sharded_clients) thread.join();
    sharded.Drain();
    const double sharded_seconds = sharded_timer.Seconds();
    const serve::ServerStats totals = sharded.stats();

    const double serial_qps =
        serial_seconds > 0 ? total_queries / serial_seconds : 0.0;
    const double sharded_qps =
        sharded_seconds > 0 ? total_queries / sharded_seconds : 0.0;
    const double speedup =
        sharded_seconds > 0 ? serial_seconds / sharded_seconds : 0.0;
    std::printf("workload: %zu queries (%zu clients x %zu), oracle latency "
                "%.1f ms, %zu shards\n",
                total_queries, clients, per_client, latency_ms, shards);
    std::printf("serialized (1 worker, serial dispatch): %.2fs (%.2f "
                "queries/s), %zu oracle calls (%zu requested)\n",
                serial_seconds, serial_qps, serial_query_calls,
                serial_requested);
    std::printf("sharded:    %.2fs (%.2f queries/s), %zu oracle calls -- "
                "%.2fx throughput\n",
                sharded_seconds, sharded_qps, totals.query_invocations,
                speedup);
    const std::vector<uint64_t> epochs = sharded.shard_epochs();
    std::printf("shard epochs:");
    for (size_t s = 0; s < epochs.size(); ++s) {
      std::printf(" %zu:%llu", s, static_cast<unsigned long long>(epochs[s]));
    }
    std::printf("\n");
    if (deadline_ms > 0 || shed_enabled || sharded_opts.partial_gather ||
        sharded_opts.hedge.enabled) {
      std::printf("degradation: %llu shed, %llu degraded, %llu "
                  "deadline-expired, %zu overruns\n",
                  static_cast<unsigned long long>(totals.queries_shed),
                  static_cast<unsigned long long>(totals.degraded_responses),
                  static_cast<unsigned long long>(totals.deadline_expired),
                  sharded_overruns.load());
    }
    if (sharded_failures.load() > 0) {
      std::fprintf(stderr, "%zu sharded queries failed\n",
                   sharded_failures.load());
      return 1;
    }
    if (require_shed && totals.queries_shed == 0 && sharded_shed.load() == 0) {
      std::fprintf(stderr, "FAIL: --require-shed but nothing was shed\n");
      return 1;
    }
    if (max_overruns >= 0 &&
        sharded_overruns.load() > static_cast<size_t>(max_overruns)) {
      std::fprintf(stderr,
                   "FAIL: %zu deadline overruns exceed the allowed %ld\n",
                   sharded_overruns.load(), max_overruns);
      return 1;
    }
    const Status invariant = sharded.CheckAttributionInvariant();
    if (!invariant.ok()) {
      std::fprintf(stderr, "%s\n", invariant.ToString().c_str());
      return 1;
    }
    std::printf("attribution invariant holds across %zu shards: index %zu + "
                "queries %zu == oracle %zu\n",
                shards, totals.index_invocations, totals.query_invocations,
                sharded_oracle.invocations());
    if (check_speedup > 0.0 && speedup < check_speedup) {
      std::fprintf(stderr, "FAIL: speedup %.2fx below required %.2fx\n",
                   speedup, check_speedup);
      return 1;
    }
    return WriteObservability(args, nullptr);
  }

  serve::TastiServer server(&dataset, &served_oracle, server_opts);
  {
    const Status status = server.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  WallTimer served_timer;
  std::vector<std::thread> client_threads;
  std::atomic<size_t> served_failures{0};
  std::atomic<size_t> served_shed{0};
  std::atomic<size_t> served_overruns{0};
  // Queue waits of the admitted queries, one vector per client thread.
  std::vector<std::vector<double>> queue_waits(clients);
  for (size_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      for (size_t q = 0; q < per_client; ++q) {
        const serve::QueryResponse response =
            server.Execute(specs[c * per_client + q]);
        // A shed is the admission policy working, not a failure.
        const bool shed =
            shed_enabled &&
            response.status.code() == StatusCode::kResourceExhausted;
        if (!shed) queue_waits[c].push_back(response.queue_wait_ms);
        if (!response.status.ok()) {
          if (shed) {
            served_shed.fetch_add(1, std::memory_order_relaxed);
          } else {
            served_failures.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (response.deadline_budget_ms > 0 &&
                   response.deadline_spent_ms >
                       response.deadline_budget_ms + overrun_slack_ms) {
          served_overruns.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : client_threads) thread.join();
  server.Drain();
  const double served_seconds = served_timer.Seconds();
  const serve::ServerStats server_stats = server.stats();
  const serve::SchedulerStats sched = server.scheduler_stats();

  // --- Report ---
  const double serial_qps =
      serial_seconds > 0 ? total_queries / serial_seconds : 0.0;
  const double served_qps =
      served_seconds > 0 ? total_queries / served_seconds : 0.0;
  const double speedup =
      served_seconds > 0 ? serial_seconds / served_seconds : 0.0;
  std::printf("workload: %zu queries (%zu clients x %zu), oracle latency "
              "%.1f ms\n",
              total_queries, clients, per_client, latency_ms);
  std::printf("serialized (1 worker, serial dispatch): %.2fs (%.2f "
              "queries/s), %zu oracle calls (%zu requested)\n",
              serial_seconds, serial_qps, serial_query_calls,
              serial_requested);
  std::printf("served:     %.2fs (%.2f queries/s), %zu oracle calls -- "
              "%.2fx throughput\n",
              served_seconds, served_qps, server_stats.query_invocations,
              speedup);
  std::printf("scheduler: %zu logical requests -> %zu physical calls "
              "(%zu saved: %zu cache hits, %zu dedup hits) in %zu batches "
              "(max %zu)\n",
              sched.logical_requests, sched.physical_calls,
              sched.saved_calls(), sched.cache_hits, sched.dedup_hits,
              sched.batches, sched.max_batch_size);
  std::printf("epochs: %llu published, %zu live snapshots\n",
              static_cast<unsigned long long>(server_stats.epochs_published),
              server.live_snapshots());
  const serve::ScoreCacheStats cache = server.score_cache_stats();
  std::printf("score cache: %llu lookups, %.0f%% hit ratio (%llu hits, "
              "%llu shared, %llu delta), %llu full computes, %llu dirty rows "
              "recomputed, %llu evictions\n",
              static_cast<unsigned long long>(cache.lookups),
              cache.hit_ratio() * 100.0,
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.shared_hits),
              static_cast<unsigned long long>(cache.delta_hits),
              static_cast<unsigned long long>(cache.full_computes),
              static_cast<unsigned long long>(cache.delta_rows),
              static_cast<unsigned long long>(cache.evictions));
  if (!server_opts.durability.dir.empty()) {
    const durable::DurabilityStats dur = server.durability_stats();
    std::printf("durability: %llu WAL records (%llu bytes), %llu fsync "
                "barriers, %llu epochs committed, %llu checkpoints, %llu "
                "segments GC'd%s -> %s\n",
                static_cast<unsigned long long>(dur.records_logged),
                static_cast<unsigned long long>(dur.bytes_logged),
                static_cast<unsigned long long>(dur.syncs),
                static_cast<unsigned long long>(dur.epochs_published),
                static_cast<unsigned long long>(dur.checkpoints_written),
                static_cast<unsigned long long>(dur.segments_deleted),
                dur.failed ? " [FAILED: logging stopped]" : "",
                server_opts.durability.dir.c_str());
  }
  std::vector<double> waits;
  for (const std::vector<double>& client_waits : queue_waits) {
    waits.insert(waits.end(), client_waits.begin(), client_waits.end());
  }
  if (!waits.empty()) {
    std::printf("queue wait: p50=%.2fms p95=%.2fms p99=%.2fms over %zu "
                "served queries\n",
                Quantile(waits, 0.50), Quantile(waits, 0.95),
                Quantile(waits, 0.99), waits.size());
  }
  if (deadline_ms > 0 || shed_enabled) {
    std::printf("degradation: %llu shed, %llu degraded, %llu "
                "deadline-expired, %zu overruns (slack %.1f ms)\n",
                static_cast<unsigned long long>(server_stats.queries_shed),
                static_cast<unsigned long long>(
                    server_stats.degraded_responses),
                static_cast<unsigned long long>(server_stats.deadline_expired),
                served_overruns.load(), overrun_slack_ms);
  }
  if (served_failures.load() > 0) {
    std::fprintf(stderr, "%zu served queries failed\n",
                 served_failures.load());
    return 1;
  }
  if (require_shed && server_stats.queries_shed == 0) {
    std::fprintf(stderr, "FAIL: --require-shed but nothing was shed\n");
    return 1;
  }
  if (max_overruns >= 0 &&
      served_overruns.load() > static_cast<size_t>(max_overruns)) {
    std::fprintf(stderr,
                 "FAIL: %zu deadline overruns exceed the allowed %ld\n",
                 served_overruns.load(), max_overruns);
    return 1;
  }

  // The serving-layer attribution invariant: every oracle invocation is
  // accounted to the index build or exactly one query.
  const Status invariant = server.CheckAttributionInvariant();
  if (!invariant.ok()) {
    std::fprintf(stderr, "%s\n", invariant.ToString().c_str());
    return 1;
  }
  if (server.query_log().total_invocations() != served_oracle.invocations()) {
    std::fprintf(stderr, "ledger mismatch: %zu vs oracle %zu\n",
                 server.query_log().total_invocations(),
                 served_oracle.invocations());
    return 1;
  }
  std::printf("attribution invariant holds: index %zu + queries %zu == "
              "oracle %zu\n",
              server_stats.index_invocations, server_stats.query_invocations,
              served_oracle.invocations());

  if (check_speedup > 0.0) {
    if (speedup < check_speedup) {
      std::fprintf(stderr, "FAIL: speedup %.2fx below required %.2fx\n",
                   speedup, check_speedup);
      return 1;
    }
    if (sched.saved_calls() == 0) {
      std::fprintf(stderr, "FAIL: scheduler saved no oracle calls\n");
      return 1;
    }
    if (server_stats.query_invocations >= serial_requested) {
      std::fprintf(stderr,
                   "FAIL: served used %zu oracle calls, serialized queries "
                   "requested %zu\n",
                   server_stats.query_invocations, serial_requested);
      return 1;
    }
    std::printf("checks passed: speedup >= %.2fx, %zu oracle calls saved "
                "vs the serialized requests\n",
                check_speedup,
                serial_requested - server_stats.query_invocations);
  }
  return WriteObservability(args, &server.query_log(),
                            static_cast<long long>(served_oracle.invocations()));
}

// Runs a monitored serve workload: K client threads against one
// TastiServer with a ServerMonitor attached, printing a one-line status
// frame every --frame-ms while queries run, then writing a
// Prometheus-style exposition (--out) and any flight-recorder dumps
// (--flight-dump prefix). --faults wires the chaos stack in, with breaker
// trips feeding the monitor's fault hook; --inject-drift N appends N
// out-of-distribution records after the workload so the drift gauges and
// alert fire end to end:
//
//   tasti_cli monitor --dataset night-street --records 6000 --clients 8
//       --rounds 2 --slo-latency-ms 50 --out monitor.prom
//       --flight-dump flight --inject-drift 500
int RunMonitor(const Args& args) {
  const data::Dataset dataset = LoadDataset(args);
  const size_t clients = static_cast<size_t>(args.GetInt("clients", 8));
  const size_t per_client = static_cast<size_t>(
      args.GetInt("rounds", args.GetInt("queries-per-client", 2)));
  const double latency_ms = args.GetDouble("oracle-latency-ms", 2.0);
  const uint64_t query_seed =
      static_cast<uint64_t>(args.GetInt("query-seed", 7));
  const size_t inject_drift =
      static_cast<size_t>(args.GetInt("inject-drift", 0));
  const double frame_ms = args.GetDouble("frame-ms", 200.0);
  const std::string out_path = args.Get("out", "monitor.prom");

  // The monitor is the point of this command: the flight recorder is
  // always on (tracing stays opt-in via --trace).
  obs::SetFlightRecordingEnabled(true);

  serve::MonitorOptions mopts;
  mopts.slo.latency_threshold_ms = args.GetDouble("slo-latency-ms", 250.0);
  mopts.slo.oracle_budget_per_query = args.GetDouble("slo-oracle-budget", 0.0);
  mopts.slo.burn_rate_threshold = args.GetDouble("burn-threshold", 2.0);
  mopts.slo.min_events =
      static_cast<uint64_t>(args.GetInt("slo-min-events", 5));
  mopts.slo.alert_cooldown_seconds = args.GetDouble("alert-cooldown-s", 60.0);
  mopts.flight_dump_path = args.Get("flight-dump", "flight");
  mopts.max_flight_dumps =
      static_cast<size_t>(args.GetInt("max-flight-dumps", 4));
  mopts.dump_cooldown_seconds = args.GetDouble("dump-cooldown-s", 1.0);
  mopts.drift_ratio_threshold = args.GetDouble("drift-threshold", 1.3);
  serve::ServerMonitor monitor(mopts);

  // Oracle stack: optional chaos (--faults) with breaker trips routed to
  // the monitor, then injected latency modeling a remote model server.
  OracleStack stack;
  if (!MakeOracleStack(args, &dataset, &stack,
                       [&monitor](labeler::BreakerState state) {
                         if (state == labeler::BreakerState::kOpen) {
                           monitor.OnFault("breaker_open",
                                           "oracle circuit breaker opened");
                         }
                       })) {
    return 2;
  }
  serve::LatencyInjectingOracle oracle(stack.oracle, latency_ms);

  core::IndexOptions index_opts;
  index_opts.num_training_records =
      static_cast<size_t>(args.GetInt("train", 300));
  index_opts.num_representatives =
      static_cast<size_t>(args.GetInt("reps", 500));
  index_opts.k = static_cast<size_t>(args.GetInt("k", 5));
  index_opts.seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  // Same mixed workload as serve-workload, without the serialized
  // baseline, deadlines or priority classes.
  const MixScorers scorers = MakeMixScorers(args, dataset);
  const std::vector<serve::QuerySpec> specs =
      MakeQueryMix(args, scorers, clients, per_client, 0.0, false);
  const size_t total_queries = specs.size();

  serve::ServerOptions server_opts;
  server_opts.index = index_opts;
  server_opts.seed = query_seed;
  server_opts.num_workers = clients;
  server_opts.max_pending = std::max<size_t>(total_queries, 1);
  // Parallel dispatch attributes one invocation per call; the --faults
  // stack retries inside a call, so it dispatches serially (the index
  // build's labels go through the scheduler too).
  server_opts.scheduler.parallel_dispatch =
      args.flags.count("serial-dispatch") == 0 && stack.resilient == nullptr;
  server_opts.scheduler.dispatch_threads = std::max<size_t>(clients, 8);
  server_opts.scheduler.batch_window_ms = 0.5;

  // --shards S>1: the same monitored workload over a ShardedServer, one
  // ServerMonitor per shard. `monitor` (already wired to the chaos fault
  // hook) watches shard 0; shards 1..S-1 get their own instances. Drift
  // injection appends to the last shard, so its monitor owns that check.
  const size_t shards = static_cast<size_t>(args.GetInt("shards", 1));
  if (shards > 1) {
    shard::ShardedServerOptions sharded_opts;
    sharded_opts.num_shards = shards;
    sharded_opts.server = server_opts;
    shard::ShardedServer sharded(&dataset, &oracle, sharded_opts);
    std::vector<std::unique_ptr<serve::ServerMonitor>> extra_monitors;
    std::vector<serve::ServerMonitor*> monitors{&monitor};
    for (size_t s = 1; s < shards; ++s) {
      // Own dump prefix per shard so concurrent flight dumps don't
      // overwrite each other.
      serve::MonitorOptions shard_mopts = mopts;
      if (!shard_mopts.flight_dump_path.empty()) {
        shard_mopts.flight_dump_path += "-shard" + std::to_string(s);
      }
      extra_monitors.push_back(
          std::make_unique<serve::ServerMonitor>(shard_mopts));
      monitors.push_back(extra_monitors.back().get());
    }
    for (size_t s = 0; s < shards; ++s) {
      sharded.AttachMonitor(s, monitors[s]);
    }
    {
      const Status status = sharded.Start();
      if (!status.ok()) {
        std::fprintf(stderr, "sharded start failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
    }
    std::printf("monitor: %zu queries (%zu clients x %zu) over %zu shards, "
                "slo latency %.2f ms, dumps -> %s-*.json\n",
                total_queries, clients, per_client, shards,
                mopts.slo.latency_threshold_ms,
                mopts.flight_dump_path.empty()
                    ? "(disabled)"
                    : mopts.flight_dump_path.c_str());

    std::atomic<bool> done{false};
    std::thread frame_thread([&] {
      if (frame_ms <= 0.0) return;
      while (!done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<long>(frame_ms * 1000.0)));
        for (size_t s = 0; s < shards; ++s) {
          std::printf("frame shard %zu %s\n", s,
                      monitors[s]->StatusLine().c_str());
        }
        std::fflush(stdout);
      }
    });

    std::vector<std::thread> client_threads;
    std::atomic<size_t> failures{0};
    for (size_t c = 0; c < clients; ++c) {
      client_threads.emplace_back([&, c] {
        for (size_t q = 0; q < per_client; ++q) {
          const shard::ShardedQueryResponse response =
              sharded.Execute(specs[c * per_client + q]);
          if (!response.merged.status.ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& thread : client_threads) thread.join();
    sharded.Drain();

    if (inject_drift > 0) {
      data::DatasetOptions drift_opts;
      drift_opts.num_records = inject_drift;
      drift_opts.feature_dim = dataset.feature_dim();
      drift_opts.seed = index_opts.seed + 1;
      const data::Dataset shifted = data::MakeTaipei(drift_opts);
      const size_t first_new = sharded.AppendRecords(shifted.features);
      const serve::IndexHealth health = monitors.back()->index_health();
      std::printf("injected drift: appended %zu records at %zu (last "
                  "shard); drift ratio %.3f (threshold %.2f) drifted=%s\n",
                  inject_drift, first_new, health.drift_ratio,
                  mopts.drift_ratio_threshold, health.drifted ? "yes" : "no");
    }

    done.store(true, std::memory_order_relaxed);
    frame_thread.join();
    size_t total_alerts = 0;
    size_t total_dumps = 0;
    for (size_t s = 0; s < shards; ++s) {
      std::printf("final shard %zu %s\n", s, monitors[s]->StatusLine().c_str());
      for (const obs::Alert& alert : monitors[s]->alerts()) {
        std::printf("alert shard %zu [%s] t=%.1fs %s\n", s,
                    obs::SloObjectiveName(alert.objective),
                    alert.fired_at_seconds, alert.message.c_str());
        ++total_alerts;
      }
      for (const std::string& path : monitors[s]->dump_files()) {
        std::printf("flight dump shard %zu: %s\n", s, path.c_str());
        ++total_dumps;
      }
    }

    const Status invariant = sharded.CheckAttributionInvariant();
    if (!invariant.ok()) {
      std::fprintf(stderr, "%s\n", invariant.ToString().c_str());
      return 1;
    }

    // One exposition file: every shard monitor's samples, each labeled
    // with its shard (WriteExposition groups them by family).
    obs::LiveStats live;
    for (size_t s = 0; s < shards; ++s) {
      obs::LiveStats shard_live = monitors[s]->Collect();
      for (obs::LiveSample& sample : shard_live.samples) {
        sample.labels.insert(sample.labels.begin(),
                             {"shard", std::to_string(s)});
        live.samples.push_back(std::move(sample));
      }
    }
    const Status written = obs::WriteExpositionFile(live, out_path);
    if (!written.ok()) {
      std::fprintf(stderr, "exposition write failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("wrote exposition to %s (%zu alerts, %zu flight dumps, "
                "%zu query failures across %zu shards)\n",
                out_path.c_str(), total_alerts, total_dumps, failures.load(),
                shards);
    if (args.flags.count("require-alert") != 0 &&
        (total_alerts == 0 || total_dumps == 0)) {
      std::fprintf(stderr, "FAIL: --require-alert but %zu alerts, %zu dumps\n",
                   total_alerts, total_dumps);
      return 1;
    }
    return WriteObservability(args, nullptr);
  }

  serve::TastiServer server(&dataset, &oracle, server_opts);
  server.AttachMonitor(&monitor);
  {
    const Status status = server.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }

  std::printf("monitor: %zu queries (%zu clients x %zu), slo latency "
              "%.2f ms, dumps -> %s-*.json\n",
              total_queries, clients, per_client,
              mopts.slo.latency_threshold_ms,
              mopts.flight_dump_path.empty() ? "(disabled)"
                                             : mopts.flight_dump_path.c_str());

  std::atomic<bool> done{false};
  std::thread frame_thread([&] {
    if (frame_ms <= 0.0) return;
    while (!done.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<long>(frame_ms * 1000.0)));
      std::printf("frame %s\n", monitor.StatusLine().c_str());
      std::fflush(stdout);
    }
  });

  std::vector<std::thread> client_threads;
  std::atomic<size_t> failures{0};
  for (size_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      for (size_t q = 0; q < per_client; ++q) {
        const serve::QueryResponse response =
            server.Execute(specs[c * per_client + q]);
        if (!response.status.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : client_threads) thread.join();
  server.Drain();

  if (inject_drift > 0) {
    // Out-of-distribution rows (a different dataset family) appended live:
    // the publish hook recomputes DetectDrift over the appended suffix and
    // the drift gauge/alert path fires if the distances inflate.
    data::DatasetOptions drift_opts;
    drift_opts.num_records = inject_drift;
    drift_opts.feature_dim = dataset.feature_dim();
    drift_opts.seed = index_opts.seed + 1;
    const data::Dataset shifted = data::MakeTaipei(drift_opts);
    const size_t first_new = server.AppendRecords(shifted.features);
    const serve::IndexHealth health = monitor.index_health();
    std::printf("injected drift: appended %zu records at %zu; drift ratio "
                "%.3f (threshold %.2f) drifted=%s\n",
                inject_drift, first_new, health.drift_ratio,
                mopts.drift_ratio_threshold, health.drifted ? "yes" : "no");
  }

  done.store(true, std::memory_order_relaxed);
  frame_thread.join();
  std::printf("final %s\n", monitor.StatusLine().c_str());

  const std::vector<obs::Alert> alerts = monitor.alerts();
  for (const obs::Alert& alert : alerts) {
    std::printf("alert [%s] t=%.1fs %s\n",
                obs::SloObjectiveName(alert.objective), alert.fired_at_seconds,
                alert.message.c_str());
  }
  const std::vector<std::string> dumps = monitor.dump_files();
  for (const std::string& path : dumps) {
    std::printf("flight dump: %s\n", path.c_str());
  }

  const Status invariant = server.CheckAttributionInvariant();
  if (!invariant.ok()) {
    std::fprintf(stderr, "%s\n", invariant.ToString().c_str());
    return 1;
  }

  const Status written = obs::WriteExpositionFile(monitor.Collect(), out_path);
  if (!written.ok()) {
    std::fprintf(stderr, "exposition write failed: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  std::printf("wrote exposition to %s (%zu alerts, %zu flight dumps, "
              "%zu query failures)\n",
              out_path.c_str(), alerts.size(), dumps.size(), failures.load());

  if (args.flags.count("require-alert") != 0 &&
      (alerts.empty() || dumps.empty())) {
    std::fprintf(stderr, "FAIL: --require-alert but %zu alerts, %zu dumps\n",
                 alerts.size(), dumps.size());
    return 1;
  }
  return WriteObservability(args, &server.query_log(), oracle.invocations());
}

// Replays durable state from --wal-dir (newest readable checkpoint plus
// committed WAL records) and reports what survived: the recovered epoch,
// replay counts, torn-tail truncation, and any quarantined segments.
// --out saves the recovered index (atomically) for the other subcommands.
int RunRecover(const Args& args) {
  const std::string dir = args.Get("wal-dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "recover: --wal-dir DIR is required\n");
    return 2;
  }
  Result<durable::RecoveredState> recovered =
      durable::Recover(/*fs=*/nullptr, dir);
  if (!recovered.ok()) {
    std::fprintf(stderr, "%s\n", recovered.status().ToString().c_str());
    return 1;
  }
  const durable::RecoveryStats& stats = recovered->stats;
  std::printf("recovered epoch %llu from checkpoint %llu (epoch %llu)%s\n",
              static_cast<unsigned long long>(recovered->epoch),
              static_cast<unsigned long long>(stats.checkpoint_seq),
              static_cast<unsigned long long>(stats.checkpoint_epoch),
              stats.manifest_missing ? " [manifest missing: scanned dir]"
                                     : "");
  std::printf("wal: %zu segments read, %zu records replayed (%zu cracks, "
              "%zu appends, %zu repairs, %zu epoch commits)\n",
              stats.segments_read, stats.records_replayed,
              stats.cracks_replayed, stats.appends_replayed,
              stats.repairs_replayed, stats.epochs_replayed);
  if (stats.uncommitted_records_discarded > 0 ||
      stats.torn_bytes_truncated > 0) {
    std::printf("crash tail: %zu uncommitted records discarded, %zu torn "
                "bytes truncated\n",
                stats.uncommitted_records_discarded,
                stats.torn_bytes_truncated);
  }
  for (const std::string& file : stats.quarantined_files) {
    std::printf("quarantined: %s\n", file.c_str());
  }
  for (const std::string& fault : stats.faults) {
    std::fprintf(stderr, "fault: %s\n", fault.c_str());
  }
  std::printf("%s\n",
              core::ComputeIndexStats(recovered->index).ToString().c_str());
  const std::string out = args.Get("out", "");
  if (!out.empty()) {
    const Status saved = core::IndexSerializer::Save(recovered->index, out);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("saved recovered index to %s\n", out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    std::string key = argv[i] + 2;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      args.flags[key.substr(0, eq)] = key.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.flags[key] = argv[++i];
    } else {
      args.flags[key] = "1";  // boolean flag
    }
  }
  const auto command = kCommandFlags.find(args.command);
  if (command == kCommandFlags.end()) return Usage();
  for (const auto& flag : args.flags) {
    if (command->second.count(flag.first) == 0) {
      std::fprintf(stderr, "tasti_cli %s: unknown flag --%s\n",
                   args.command.c_str(), flag.first.c_str());
      return Usage();
    }
  }
  // A sharded run keeps one ledger per shard and no merged one.
  if (args.flags.count("metrics") > 0 && args.GetInt("shards", 1) > 1) {
    std::fprintf(stderr,
                 "--metrics needs one query ledger; --shards > 1 keeps one "
                 "per shard\n");
    return 2;
  }
  if (!args.Get("trace", "").empty()) obs::SetTracingEnabled(true);
  int rc;
  if (args.command == "build") {
    rc = RunBuild(args);
  } else if (args.command == "info") {
    rc = RunInfo(args);
  } else if (args.command == "aggregate") {
    rc = RunAggregate(args);
  } else if (args.command == "select") {
    rc = RunSelect(args);
  } else if (args.command == "limit") {
    rc = RunLimit(args);
  } else if (args.command == "workload") {
    return RunWorkload(args);  // writes its own ledger-bearing outputs
  } else if (args.command == "serve-workload") {
    return RunServeWorkload(args);
  } else if (args.command == "monitor") {
    return RunMonitor(args);
  } else if (args.command == "recover") {
    rc = RunRecover(args);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;
  return WriteObservability(args, nullptr);
}
