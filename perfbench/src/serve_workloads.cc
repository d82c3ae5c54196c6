// The two served workloads: four closed-loop clients on one TastiServer
// (four workers, four parallel oracle dispatch threads).
//
//  - serve_write: 0.1 ms oracle, triplet training, auto-crack in
//    non-deterministic mode with the WAL on and a checkpoint cadence, two to
//    three reused scorers. Every query is also a write (crack, WAL barrier,
//    epoch publish). After the queries, one client appends batches of fresh
//    records: TastiServer aborts any query that starts after an append (the
//    per-query oracle keeps the construction-time record count), so appends
//    cannot interleave with queries.
//  - serve_remote: 2 ms oracle, pretrained embeddings (no triplet training),
//    many distinct scorers over overlapping predicates, no WAL, no appends.
//    Oracle latency dominates; the scheduler's batching, dedup and label
//    cache decide throughput.
//
// Each round starts a fresh server (set-up) and runs every client's query
// list (timed phase). With --trace 1, one extra round runs traced: client
// spans around Submit→Wait and AppendRecords, plus a replay of the build
// layers that must match the server's built index bit for bit.

#include <filesystem>
#include <optional>
#include <thread>

#include "core/serialize.h"
#include "serve/oracle_scheduler.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace tasti;
using serve::QueryKind;
using serve::QueryResponse;
using serve::QuerySpec;

struct ServeConfig {
  size_t records = 0;
  double oracle_ms = 0.0;
  size_t clients = 0;
  size_t per_client = 0;
  size_t append_batches = 0;
  size_t append_rows = 0;
  serve::ServerOptions server;
  RoundPolicy rounds;
};

ServeConfig MakeConfig(const Args& args, bool remote, uint64_t seed) {
  ServeConfig config;
  config.records = 10000;
  config.oracle_ms = remote ? 2.0 : 0.1;
  config.clients = 4;
  config.per_client = remote ? 4 : 12;
  if (!remote) {
    config.append_batches = 4;
    config.append_rows = 200;
  }
  serve::ServerOptions& server = config.server;
  server.num_workers = 4;
  server.max_pending = 64;
  server.auto_crack = true;
  server.deterministic = false;
  server.scheduler.parallel_dispatch = true;
  server.scheduler.dispatch_threads = 4;
  server.confidence = 0.95;
  server.seed = seed * 1009 + 3;
  core::IndexOptions& index = server.index;
  index.use_triplet_training = !remote;
  index.num_training_records = 300;
  index.num_representatives = remote ? 400 : 600;
  index.k = 5;
  index.epochs = 10;
  index.seed = seed * 31 + 7;
  if (!remote) server.durability.checkpoint_every_epochs = 8;
  config.rounds.seconds = args.seconds;
  // Bounded so the pooled sample count keeps the tail on one rung: 16 per
  // round over 7..12 rounds (p90) remote, 48 over 5..20 rounds (p95) write.
  config.rounds.min_rounds = remote ? 7 : 5;
  config.rounds.max_rounds = remote ? 12 : 20;
  return config;
}

QuerySpec MakeSpec(QueryKind kind, const core::Scorer* scorer, size_t client) {
  QuerySpec spec;
  spec.kind = kind;
  spec.scorer = scorer;
  spec.client_id = client;
  return spec;
}

// Three reused scorers; each client cycles through all six kinds, rotated so
// the clients do not move in lockstep.
std::vector<std::vector<QuerySpec>> WritePlan(const ServeConfig& config,
                                              ScorerSet* scorers) {
  using data::ObjectClass;
  const core::Scorer* count = scorers->Add(
      std::make_unique<core::CountScorer>(ObjectClass::kCar));
  const core::Scorer* two = scorers->Add(
      std::make_unique<core::AtLeastCountScorer>(ObjectClass::kCar, 2));
  const core::Scorer* four = scorers->Add(
      std::make_unique<core::AtLeastCountScorer>(ObjectClass::kCar, 3));
  std::vector<std::vector<QuerySpec>> plan(config.clients);
  for (size_t c = 0; c < config.clients; ++c) {
    for (size_t q = 0; q < config.per_client; ++q) {
      QuerySpec spec;
      switch ((q + c) % 6) {
        case 0:
          spec = MakeSpec(QueryKind::kAggregate, count, c);
          spec.error_target = 0.1;
          break;
        case 1:
          spec = MakeSpec(QueryKind::kSupgRecall, two, c);
          spec.budget = 300;
          break;
        case 2:
          spec = MakeSpec(QueryKind::kThresholdSelect, two, c);
          spec.validation_budget = 200;
          break;
        case 3:
          spec = MakeSpec(QueryKind::kLimit, four, c);
          spec.want = 10;
          break;
        case 4:
          spec = MakeSpec(QueryKind::kSupgPrecision, two, c);
          spec.budget = 300;
          break;
        default:
          spec = MakeSpec(QueryKind::kAggregateWhere, two, c);
          spec.statistic = count;
          spec.error_target = 0.1;
          break;
      }
      plan[c].push_back(spec);
    }
  }
  return plan;
}

// "A car whose box centre lies in [lo, hi)": overlapping windows give many
// distinct scorers whose label needs overlap across queries.
std::unique_ptr<core::Scorer> CarInWindow(double lo, double hi) {
  char name[64];
  std::snprintf(name, sizeof(name), "car_x_in[%.2f,%.2f)", lo, hi);
  return std::make_unique<core::LambdaScorer>(
      [lo, hi](const data::LabelerOutput& output) {
        const auto* video = std::get_if<data::VideoLabel>(&output);
        if (video == nullptr) return 0.0;
        for (const data::Box& box : video->boxes) {
          if (box.cls == data::ObjectClass::kCar && box.x >= lo && box.x < hi) {
            return 1.0;
          }
        }
        return 0.0;
      },
      /*categorical=*/true, name);
}

// Every query names one of eight overlapping car-position windows, so
// queries share labels but no two consecutive ones share a scorer. Left
// out: the predicate aggregate (its importance weights keep it sampling
// ~4000 labels whatever the target, which at 2 ms a label would dominate
// every round) and recall-target SUPG, whose 0.9 recall guarantee misses in
// 7-33% of queries over these predicates with pretrained embeddings.
std::vector<std::vector<QuerySpec>> RemotePlan(const ServeConfig& config,
                                               ScorerSet* scorers) {
  constexpr size_t kWindows = 8;
  std::vector<const core::Scorer*> windows;
  for (size_t w = 0; w < kWindows; ++w) {
    const double lo = 0.1 * static_cast<double>(w);
    windows.push_back(scorers->Add(CarInWindow(lo, lo + 0.35)));
  }
  std::vector<std::vector<QuerySpec>> plan(config.clients);
  for (size_t c = 0; c < config.clients; ++c) {
    for (size_t q = 0; q < config.per_client; ++q) {
      const core::Scorer* window =
          windows[(c * config.per_client + q) % kWindows];
      QuerySpec spec;
      switch ((q + c) % 4) {
        case 0:
          spec = MakeSpec(QueryKind::kSupgPrecision, window, c);
          spec.budget = 100;
          break;
        case 1:
          spec = MakeSpec(QueryKind::kLimit, window, c);
          spec.want = 5;
          break;
        case 2:
          spec = MakeSpec(QueryKind::kThresholdSelect, window, c);
          spec.validation_budget = 100;
          break;
        default:
          spec = MakeSpec(QueryKind::kAggregate, window, c);
          spec.error_target = 0.4 * StdDev(scorers->Exact(window));
          break;
      }
      plan[c].push_back(spec);
    }
  }
  return plan;
}

// One round's inputs: its own dataset, ground truth, scorers and plan.
struct RoundInputs {
  RoundInputs(const Args& args, bool remote, size_t round)
      : config(MakeConfig(args, remote, RoundSeed(args.seed, round))),
        inputs(MakeInputs(config.records,
                          config.append_batches * config.append_rows,
                          RoundSeed(args.seed, round))),
        scorers(&inputs.base, /*timing=*/false),
        plan(remote ? RemotePlan(config, &scorers)
                    : WritePlan(config, &scorers)) {}

  const ServeConfig config;
  const Inputs inputs;
  ScorerSet scorers;  // refers to inputs.base
  const std::vector<std::vector<QuerySpec>> plan;
};

// Layer counts of one round, read from the server's public stats structs,
// its QueryLog and the responses.
struct ServeLayers {
  serve::ServerStats server;
  serve::SchedulerStats scheduler;
  serve::ScoreCacheStats score_cache;
  durable::DurabilityStats durability;
  double propagate_s = 0.0;
  double algorithm_s = 0.0;
  double crack_s = 0.0;
  size_t cracked_reps = 0;
  std::vector<double> queue_wait_ms;
  std::vector<double> execute_ms;
  double oracle_busy_s = 0.0;
  size_t scorer_calls = 0;
  double scorer_s = 0.0;
  std::vector<std::string> build_differ;
  size_t build_replay_calls = 0;
};

struct ServeRound {
  RoundSample sample;
  ServeLayers layers;
};

ServeRound RunServeRound(RoundInputs* in, const std::string& wal_dir,
                         Checker* checker, Tracer* tracer) {
  const ServeConfig& config = in->config;
  const Inputs& inputs = in->inputs;
  const std::vector<std::vector<QuerySpec>>& plan = in->plan;
  ScorerSet* scorers = &in->scorers;
  ServeRound round;
  const bool traced = tracer->enabled();
  labeler::SimulatedLabeler simulated(&inputs.full);
  labeler::FallibleAdapter adapter(&simulated);
  std::optional<serve::LatencyInjectingOracle> latency;
  labeler::FallibleLabeler* inner = &adapter;
  if (config.oracle_ms > 0.0) {
    latency.emplace(&adapter, config.oracle_ms);
    inner = &*latency;
  }
  CountingOracle oracle(inner, inputs.base.size(), traced);

  BuildReplay build;
  if (traced) {
    // A separate oracle chain, so the replay's calls stay off the server's
    // attribution ledger.
    labeler::SimulatedLabeler replay_simulated(&inputs.full);
    labeler::FallibleAdapter replay_adapter(&replay_simulated);
    std::optional<serve::LatencyInjectingOracle> replay_latency;
    labeler::FallibleLabeler* replay_oracle = &replay_adapter;
    if (config.oracle_ms > 0.0) {
      replay_latency.emplace(&replay_adapter, config.oracle_ms);
      replay_oracle = &*replay_latency;
    }
    CountingOracle replay_counted(replay_oracle, inputs.base.size(), false);
    build = ReplayBuild(inputs.base, config.server.index, &replay_counted,
                        tracer);
    round.layers.build_replay_calls = build.oracle_calls;
  }

  serve::ServerOptions options = config.server;
  if (!wal_dir.empty()) {
    std::filesystem::remove_all(wal_dir);
    options.durability.dir = wal_dir;
  }
  serve::TastiServer server(&inputs.base, &oracle, options);
  const int64_t setup_start = NowNs();
  const Status started = server.Start();
  round.sample.setup_s = SecondsSince(setup_start);
  round.sample.setup_calls = oracle.calls();
  const double setup_busy_s = oracle.busy_seconds();
  if (!started.ok()) {
    checker->Fail("server start failed: " + started.ToString());
    return round;
  }
  if (traced) {
    Result<std::string> bytes = server.SerializeIndex();
    Result<core::TastiIndex> index =
        bytes.ok() ? core::IndexSerializer::DeserializeFromString(*bytes)
                   : Result<core::TastiIndex>(bytes.status());
    round.layers.build_differ =
        index.ok() ? CompareBuild(build, *index)
                   : std::vector<std::string>{"server index unreadable"};
  }

  const size_t scorer_calls_before = scorers->TotalCalls();
  const double scorer_s_before = scorers->TotalBusySeconds();
  std::vector<std::vector<QueryResponse>> responses(config.clients);
  std::vector<std::vector<double>> latencies(config.clients);
  const double cpu_start = CpuSeconds();
  const int64_t start = NowNs();
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < config.clients; ++c) {
      clients.emplace_back([&, c] {
        ScopedSpan window(tracer, "bench.window");
        for (const QuerySpec& spec : plan[c]) {
          const int64_t query_start = NowNs();
          QueryResponse response;
          {
            ScopedSpan span(tracer, "serve.query");
            Result<uint64_t> id = server.Submit(spec);
            if (id.ok()) {
              span.set_query_id(*id);
              response = server.Wait(*id);
            } else {
              response.kind = spec.kind;
              response.status = id.status();
            }
          }
          latencies[c].push_back(SecondsSince(query_start) * 1e3);
          responses[c].push_back(std::move(response));
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  round.sample.wall_s = SecondsSince(start);
  round.sample.cpu_s = CpuSeconds() - cpu_start;
  round.sample.query_calls = oracle.calls() - round.sample.setup_calls;
  round.layers.oracle_busy_s = oracle.busy_seconds() - setup_busy_s;
  round.layers.scorer_calls = scorers->TotalCalls() - scorer_calls_before;
  round.layers.scorer_s = scorers->TotalBusySeconds() - scorer_s_before;

  // The write phase: fresh records from the pool behind the base records.
  for (size_t b = 0; b < config.append_batches; ++b) {
    ScopedSpan window(tracer, "bench.window");
    const size_t first = inputs.base.size() + b * config.append_rows;
    const nn::Matrix rows =
        inputs.full.features.RowSlice(first, first + config.append_rows);
    const int64_t append_start = NowNs();
    size_t appended_at = 0;
    {
      ScopedSpan span(tracer, "serve.append");
      appended_at = server.AppendRecords(rows);
    }
    round.sample.append_ms.push_back(SecondsSince(append_start) * 1e3);
    checker->Attempt();
    if (appended_at != first) {
      checker->Fail("append landed at record " + std::to_string(appended_at) +
                    ", expected " + std::to_string(first));
    }
  }
  server.Drain();

  for (size_t c = 0; c < config.clients; ++c) {
    for (size_t q = 0; q < plan[c].size(); ++q) {
      const QueryResponse& response = responses[c][q];
      checker->Check(plan[c][q], response, *scorers);
      round.layers.cracked_reps += response.cracked_representatives;
      round.layers.queue_wait_ms.push_back(response.queue_wait_ms);
      round.layers.execute_ms.push_back(response.execute_seconds * 1e3);
    }
    round.sample.latencies_ms.insert(round.sample.latencies_ms.end(),
                                     latencies[c].begin(), latencies[c].end());
    round.sample.queries += plan[c].size();
  }
  const Status invariant = server.CheckAttributionInvariant();
  if (!invariant.ok()) checker->Fail(invariant.ToString());
  ServeLayers& layers = round.layers;
  layers.server = server.stats();
  layers.scheduler = server.scheduler_stats();
  layers.score_cache = server.score_cache_stats();
  layers.durability = server.durability_stats();
  if (layers.server.index_invocations + layers.server.query_invocations !=
      oracle.calls()) {
    checker->Fail("server ledger " +
                  std::to_string(layers.server.index_invocations +
                                 layers.server.query_invocations) +
                  " != oracle calls " + std::to_string(oracle.calls()));
  }
  for (const obs::QueryRecord& record : server.query_log().queries()) {
    layers.propagate_s +=
        record.phases.rep_score_seconds + record.phases.propagation_seconds;
    layers.algorithm_s += record.phases.algorithm_seconds;
    layers.crack_s += record.phases.crack_seconds;
  }
  server.Shutdown();
  if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir);
  return round;
}

std::vector<Metric> LayerMetrics(const ServeRound& round, const Tracer& tracer,
                                 double untraced_qps) {
  const ServeLayers& l = round.layers;
  const RoundSample& s = round.sample;
  const TailChoice tail = ChooseTail(l.queue_wait_ms.size());
  auto count = [](auto v) { return static_cast<double>(v); };
  return {
      {"embed.triplet_train_s", tracer.TotalSeconds("embed.triplet_train"), "s"},
      {"embed.embed_s", tracer.TotalSeconds("embed.embed"), "s"},
      {"cluster.select_reps_s", tracer.TotalSeconds("cluster.select_reps"), "s"},
      {"labeler.annotate_reps_s", tracer.TotalSeconds("labeler.annotate_reps"), "s"},
      {"cluster.min_k_s", tracer.TotalSeconds("cluster.min_k"), "s"},
      {"labeler.build_calls", count(s.setup_calls), "calls"},
      {"core.propagate_s", l.propagate_s, "s"},
      {"core.propagate_calls",
       count(l.score_cache.full_computes + l.score_cache.delta_hits), "count"},
      {"core.scorer_calls", count(l.scorer_calls), "calls"},
      {"core.scorer_s", l.scorer_s, "s"},
      {"queries.algorithm_s", l.algorithm_s, "s"},
      {"cluster.crack_s", l.crack_s, "s"},
      {"cluster.crack_reps", count(l.cracked_reps), "reps"},
      {"labeler.calls", count(s.query_calls), "calls"},
      {"labeler.busy_s", l.oracle_busy_s, "s"},
      {"labeler.inflight_mean", l.oracle_busy_s / s.wall_s, "calls"},
      {"serve.queue_wait_ms_p50", Median(l.queue_wait_ms), "ms"},
      {"serve.queue_wait_ms_tail", Percentile(l.queue_wait_ms, tail.percentile),
       "ms"},
      {"serve.execute_ms_p50", Median(l.execute_ms), "ms"},
      {"serve.scheduler.logical_requests", count(l.scheduler.logical_requests),
       "calls"},
      {"serve.scheduler.physical_calls", count(l.scheduler.physical_calls),
       "calls"},
      {"serve.scheduler.cache_hits", count(l.scheduler.cache_hits), "calls"},
      {"serve.scheduler.dedup_hits", count(l.scheduler.dedup_hits), "calls"},
      {"serve.scheduler.batches", count(l.scheduler.batches), "count"},
      {"serve.scheduler.mean_batch",
       count(l.scheduler.physical_calls) /
           count(std::max<size_t>(l.scheduler.batches, 1)),
       "calls"},
      {"serve.score_cache.hits",
       count(l.score_cache.hits + l.score_cache.shared_hits), "count"},
      {"serve.score_cache.delta_hits", count(l.score_cache.delta_hits), "count"},
      {"serve.score_cache.full_computes", count(l.score_cache.full_computes),
       "count"},
      {"serve.score_cache.delta_rows", count(l.score_cache.delta_rows), "rows"},
      {"serve.score_cache.evictions", count(l.score_cache.evictions), "count"},
      {"serve.epochs_published", count(l.server.epochs_published), "count"},
      {"serve.cracked_reps", count(l.cracked_reps), "reps"},
      {"serve.append_ms", Median(s.append_ms), "ms"},
      {"durable.syncs", count(l.durability.syncs), "count"},
      {"durable.wal_bytes", count(l.durability.bytes_logged), "bytes"},
      {"durable.checkpoints", count(l.durability.checkpoints_written), "count"},
      {"trace.unaccounted_frac", tracer.UnaccountedFraction(), "ratio"},
      {"trace.overhead_frac",
       1.0 - (static_cast<double>(s.queries) / s.wall_s) / untraced_qps,
       "ratio"},
  };
}

}  // namespace

RunResult RunServeWorkload(const Args& args, bool remote) {
  const ServeConfig config = MakeConfig(args, remote, args.seed);
  RunResult result;
  result.threads = Threads{config.clients, config.server.num_workers,
                           config.server.scheduler.dispatch_threads};
  Checker checker(config.server.confidence);
  const std::string wal_dir =
      remote ? "" : args.out_dir + "/wal-" + args.workload + "-" +
                        std::to_string(args.seed);

  RoundPolicy policy = config.rounds;
  if (args.trace) policy.min_rounds = 1, policy.seconds = args.seconds / 2;
  Tracer untraced(false);
  const std::vector<RoundSample> rounds = RunRounds(policy, [&](size_t r) {
    RoundInputs in(args, remote, r);
    return RunServeRound(&in, wal_dir, &checker, &untraced).sample;
  });
  result.end_to_end = EndToEndMetrics(rounds, &result.notes);
  std::vector<double> appends;
  for (const RoundSample& round : rounds) {
    appends.insert(appends.end(), round.append_ms.begin(), round.append_ms.end());
  }
  if (!appends.empty()) {
    result.end_to_end.push_back({"append_p50_ms", Median(appends), "ms"});
  }

  if (args.trace) {
    // The traced round reruns round 0's inputs, the overhead baseline.
    Tracer tracer(true);
    RoundInputs in(args, remote, 0);
    in.scorers.SetTiming(true);
    const ServeRound traced = RunServeRound(&in, wal_dir, &checker, &tracer);
    for (const std::string& piece : traced.layers.build_differ) {
      checker.Fail("build replay differs from the server's index: " + piece);
    }
    if (traced.layers.build_replay_calls != traced.sample.setup_calls) {
      checker.Fail("build replay used " +
                   std::to_string(traced.layers.build_replay_calls) +
                   " oracle calls, the server " +
                   std::to_string(traced.sample.setup_calls));
    }
    result.per_layer = LayerMetrics(
        traced, tracer,
        static_cast<double>(rounds.front().queries) / rounds.front().wall_s);
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (tracer.WriteChromeTrace(path, HostJson(args, result.threads))) {
      result.notes.push_back("chrome trace: " + path);
    } else {
      checker.Fail("cannot write " + path);
    }
  }
  checker.Finish(&result);
  return result;
}

}  // namespace perfbench
