// The `session` workload: one client runs a fixed script over all six
// query kinds on TastiSession (auto-crack, in-process oracle at 50 us a
// call, triplet training) — the paper's own path. Build, cracking and
// propagation take about half of the query time and nearly all of set-up;
// the oracle's fixed cost takes the rest, so a slower or faster host moves
// the timings by about half as much as a purely CPU-bound script.
//
// Each round draws its own dataset, builds a fresh session (set-up) and runs
// the script (timed phase). After the rounds, a layer replay runs round 0's
// build and script through the layers' public functions (embed, cluster,
// labeler, core, queries, TastiIndex::CrackFromLabels); its answers and
// final index must be bit-identical to the session's. With --trace 1 the
// replay records spans and yields the per-layer metrics.

#include <unordered_map>

#include "api/session.h"
#include "core/proxy.h"
#include "core/serialize.h"
#include "labeler/resilient.h"
#include "queries/aggregation.h"
#include "queries/limit.h"
#include "queries/noguarantee.h"
#include "queries/predicate_aggregation.h"
#include "queries/supg.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace tasti;
using serve::QueryKind;
using serve::QueryResponse;
using serve::QuerySpec;

struct SessionConfig {
  size_t records;
  double oracle_cost_us;
  api::SessionOptions options;
  RoundPolicy rounds;
};

SessionConfig MakeConfig(const Args& args, uint64_t seed) {
  SessionConfig config;
  config.records = 10000;
  config.oracle_cost_us = 50.0;
  core::IndexOptions& index = config.options.index;
  index.num_training_records = 300;
  index.num_representatives = 600;
  index.k = 5;
  index.epochs = 10;
  index.seed = seed * 31 + 7;
  config.options.seed = seed * 1009 + 3;
  config.options.auto_crack = true;
  config.rounds.seconds = args.seconds;
  config.rounds.min_rounds = 16;
  config.rounds.max_rounds = 40;
  return config;
}

QuerySpec Spec(QueryKind kind, const core::Scorer* scorer, double param) {
  QuerySpec spec;
  spec.kind = kind;
  spec.scorer = scorer;
  switch (kind) {
    case QueryKind::kAggregate:
    case QueryKind::kAggregateWhere:
      spec.error_target = param;
      break;
    case QueryKind::kSupgRecall:
    case QueryKind::kSupgPrecision:
      spec.target = 0.9;
      spec.budget = static_cast<size_t>(param);
      break;
    case QueryKind::kThresholdSelect:
      spec.validation_budget = static_cast<size_t>(param);
      break;
    case QueryKind::kLimit:
      spec.want = static_cast<size_t>(param);
      break;
  }
  return spec;
}

// Thirteen queries: every kind over five scorers, each scorer reused after
// a crack. An odd count puts the pooled median inside one query's samples
// rather than on the boundary between two; 13 per round over 16..40 rounds
// keeps the tail at p95. Aggregate error targets are fractions of the
// statistic's standard deviation.
std::vector<QuerySpec> MakeScript(ScorerSet* scorers) {
  using data::ObjectClass;
  const core::Scorer* has = scorers->Add(
      std::make_unique<core::PresenceScorer>(ObjectClass::kCar));
  const core::Scorer* two = scorers->Add(
      std::make_unique<core::AtLeastCountScorer>(ObjectClass::kCar, 2));
  const core::Scorer* four = scorers->Add(
      std::make_unique<core::AtLeastCountScorer>(ObjectClass::kCar, 3));
  const core::Scorer* left = scorers->Add(
      std::make_unique<core::LeftPresenceScorer>(ObjectClass::kCar));
  const core::Scorer* mean_x = scorers->Add(
      std::make_unique<core::MeanXScorer>(ObjectClass::kCar));
  // Bounded statistics only: an empirical-Bernstein stop depends on the
  // statistic's range, which for car counts swings with the seed's bursts.
  auto sd = [scorers](const core::Scorer* scorer) {
    return StdDev(scorers->Exact(scorer));
  };
  QuerySpec where = Spec(QueryKind::kAggregateWhere, has,
                         0.5 * StdDev(scorers->Exact(mean_x),
                                       &scorers->Exact(has)));
  where.statistic = mean_x;
  return {
      Spec(QueryKind::kAggregate, has, 0.1 * sd(has)),
      Spec(QueryKind::kSupgRecall, two, 300),
      Spec(QueryKind::kSupgPrecision, two, 300),
      Spec(QueryKind::kThresholdSelect, has, 200),
      Spec(QueryKind::kLimit, four, 10),
      where,
      Spec(QueryKind::kAggregate, mean_x, 0.2 * sd(mean_x)),
      Spec(QueryKind::kSupgRecall, left, 300),
      Spec(QueryKind::kLimit, two, 20),
      Spec(QueryKind::kAggregate, two, 0.1 * sd(two)),
      Spec(QueryKind::kSupgPrecision, has, 300),
      Spec(QueryKind::kAggregate, left, 0.1 * sd(left)),
      Spec(QueryKind::kThresholdSelect, two, 200),
  };
}

QueryResponse ExecuteOnSession(api::TastiSession* session,
                               const QuerySpec& spec) {
  QueryResponse response;
  response.kind = spec.kind;
  switch (spec.kind) {
    case QueryKind::kAggregate:
      response.aggregate = session->Aggregate(*spec.scorer, spec.error_target);
      break;
    case QueryKind::kAggregateWhere:
      response.aggregate_where = session->AggregateWhere(
          *spec.scorer, *spec.statistic, spec.error_target);
      break;
    case QueryKind::kSupgRecall:
      response.supg =
          session->SelectWithRecall(*spec.scorer, spec.target, spec.budget);
      break;
    case QueryKind::kSupgPrecision:
      response.supg =
          session->SelectWithPrecision(*spec.scorer, spec.target, spec.budget);
      break;
    case QueryKind::kThresholdSelect:
      response.select = session->Select(*spec.scorer, spec.validation_budget);
      break;
    case QueryKind::kLimit:
      response.limit = session->Limit(*spec.scorer, spec.want);
      break;
  }
  response.status = session->last_query_status();
  return response;
}

uint64_t IndexDigest(const core::TastiIndex& index, std::string* bytes_out) {
  Result<std::string> bytes = core::IndexSerializer::SerializeToString(index);
  if (!bytes.ok()) return 0;
  const uint64_t digest = HashBytes(bytes->data(), bytes->size());
  if (bytes_out != nullptr) *bytes_out = std::move(bytes).value();
  return digest;
}

// One round's inputs: its own dataset, ground truth, scorers and script.
struct RoundInputs {
  RoundInputs(const Args& args, size_t round)
      : config(MakeConfig(args, RoundSeed(args.seed, round))),
        inputs(MakeInputs(config.records, 0, RoundSeed(args.seed, round))),
        scorers(&inputs.base, /*timing=*/false),
        script(MakeScript(&scorers)) {}

  const SessionConfig config;
  const Inputs inputs;
  ScorerSet scorers;  // refers to inputs.base
  const std::vector<QuerySpec> script;
};

struct SessionRound {
  RoundSample sample;
  std::vector<QueryResponse> responses;
  std::vector<uint64_t> answers;
  uint64_t final_index = 0;
  std::string built_index;  // serialized right after set-up (first round)
  std::string ledger_problem;
};

SessionRound RunSessionRound(const RoundInputs& in, bool keep_built_index) {
  const Inputs& inputs = in.inputs;
  const std::vector<QuerySpec>& script = in.script;
  SessionRound round;
  labeler::SimulatedLabeler simulated(&inputs.base);
  labeler::FallibleAdapter adapter(&simulated);
  FixedCostOracle costly(&adapter, in.config.oracle_cost_us);
  CountingOracle oracle(&costly, inputs.base.size(), /*timing=*/false);
  api::TastiSession session(&inputs.base, &oracle, in.config.options);

  const int64_t setup_start = NowNs();
  session.index();
  round.sample.setup_s = SecondsSince(setup_start);
  round.sample.setup_calls = oracle.calls();
  if (keep_built_index) IndexDigest(session.index(), &round.built_index);

  const double cpu_start = CpuSeconds();
  const int64_t start = NowNs();
  for (const QuerySpec& spec : script) {
    const int64_t query_start = NowNs();
    round.responses.push_back(ExecuteOnSession(&session, spec));
    round.sample.latencies_ms.push_back(SecondsSince(query_start) * 1e3);
  }
  round.sample.wall_s = SecondsSince(start);
  round.sample.cpu_s = CpuSeconds() - cpu_start;
  round.sample.queries = script.size();
  round.sample.query_calls = oracle.calls() - round.sample.setup_calls;

  if (session.query_log().total_invocations() != oracle.calls() ||
      simulated.invocations() != oracle.calls()) {
    round.ledger_problem =
        "session ledger " +
        std::to_string(session.query_log().total_invocations()) +
        " != oracle calls " + std::to_string(oracle.calls());
  }
  for (const QueryResponse& response : round.responses) {
    round.answers.push_back(AnswerDigest(response));
  }
  round.final_index = IndexDigest(session.index(), nullptr);
  return round;
}

// --- Layer replay ---

struct ReplayResult {
  std::vector<uint64_t> answers;
  uint64_t final_index = 0;
  std::vector<std::string> mismatches;  // build pieces that differ
  double query_window_s = 0.0;
  size_t build_calls = 0;
  size_t query_calls = 0;
  double query_labeler_s = 0.0;
  double algorithm_labeler_s = 0.0;  // labeler time inside queries.* spans
  size_t scorer_calls = 0;
  double scorer_s = 0.0;
  size_t cracked_reps = 0;
};

const char* QuerySpanName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kAggregate: return "queries.aggregate";
    case QueryKind::kAggregateWhere: return "queries.aggregate_where";
    case QueryKind::kSupgRecall: return "queries.supg_recall";
    case QueryKind::kSupgPrecision: return "queries.supg_precision";
    case QueryKind::kThresholdSelect: return "queries.threshold_select";
    case QueryKind::kLimit: return "queries.limit";
  }
  return "queries.unknown";
}

// One query through queries::Try*, with the options TastiSession sets.
QueryResponse RunAlgorithm(const QuerySpec& spec,
                           const std::vector<double>& proxy,
                           labeler::FallibleLabeler* oracle, uint64_t seed,
                           double confidence) {
  QueryResponse response;
  response.kind = spec.kind;
  switch (spec.kind) {
    case QueryKind::kAggregate: {
      queries::AggregationOptions opts;
      opts.error_target = spec.error_target;
      opts.confidence = confidence;
      opts.seed = seed;
      auto r = queries::TryEstimateMean(proxy, oracle, *spec.scorer, opts);
      response.status = r.status();
      if (r.ok()) response.aggregate = std::move(r).value();
      break;
    }
    case QueryKind::kAggregateWhere: {
      queries::PredicateAggregationOptions opts;
      opts.error_target = spec.error_target;
      opts.confidence = confidence;
      opts.seed = seed;
      auto r = queries::TryEstimateMeanWithPredicate(proxy, oracle, *spec.scorer,
                                                     *spec.statistic, opts);
      response.status = r.status();
      if (r.ok()) response.aggregate_where = std::move(r).value();
      break;
    }
    case QueryKind::kSupgRecall: {
      queries::SupgOptions opts;
      opts.recall_target = spec.target;
      opts.confidence = confidence;
      opts.budget = spec.budget;
      opts.seed = seed;
      auto r = queries::TrySupgRecallSelect(proxy, oracle, *spec.scorer, opts);
      response.status = r.status();
      if (r.ok()) response.supg = std::move(r).value();
      break;
    }
    case QueryKind::kSupgPrecision: {
      queries::SupgPrecisionOptions opts;
      opts.precision_target = spec.target;
      opts.confidence = confidence;
      opts.budget = spec.budget;
      opts.seed = seed;
      auto r = queries::TrySupgPrecisionSelect(proxy, oracle, *spec.scorer, opts);
      response.status = r.status();
      if (r.ok()) response.supg = std::move(r).value();
      break;
    }
    case QueryKind::kThresholdSelect: {
      queries::ThresholdSelectOptions opts;
      opts.validation_budget = spec.validation_budget;
      opts.seed = seed;
      auto r = queries::TryThresholdSelect(proxy, oracle, *spec.scorer, opts);
      response.status = r.status();
      if (r.ok()) response.select = std::move(r).value();
      break;
    }
    case QueryKind::kLimit: {
      queries::LimitOptions opts;
      opts.want = spec.want;
      auto r = queries::TryLimitQuery(proxy, oracle, *spec.scorer, opts);
      response.status = r.status();
      if (r.ok()) response.limit = std::move(r).value();
      break;
    }
  }
  return response;
}

// Replays TastiIndex::Build step by step (same seeds and options), then the
// script the way TastiSession runs it. `built_index` is the session's index
// right after set-up: the replayed build must equal it, and the query phase
// cracks a copy of it through TastiIndex::CrackFromLabels.
ReplayResult RunReplay(const RoundInputs& in, const std::string& built_index,
                       Tracer* tracer) {
  const SessionConfig& config = in.config;
  const std::vector<QuerySpec>& script = in.script;
  const ScorerSet& scorers = in.scorers;
  ReplayResult out;
  const data::Dataset& dataset = in.inputs.base;
  labeler::SimulatedLabeler simulated(&dataset);
  labeler::FallibleAdapter adapter(&simulated);
  FixedCostOracle costly(&adapter, config.oracle_cost_us);
  CountingOracle oracle(&costly, dataset.size(), tracer->enabled());

  // Window 1: the build layers.
  const BuildReplay build =
      ReplayBuild(dataset, config.options.index, &oracle, tracer);
  out.build_calls = build.oracle_calls;

  Result<core::TastiIndex> loaded =
      core::IndexSerializer::DeserializeFromString(built_index);
  if (!loaded.ok()) {
    out.mismatches.push_back("built index does not deserialize: " +
                             loaded.status().ToString());
    return out;
  }
  core::TastiIndex index = std::move(loaded).value();
  out.mismatches = CompareBuild(build, index);

  // Window 2: the script, as TastiSession runs it.
  const size_t calls_before = oracle.calls();
  const double busy_before = oracle.busy_seconds();
  const size_t scorer_calls_before = scorers.TotalCalls();
  const double scorer_s_before = scorers.TotalBusySeconds();
  std::unordered_map<std::string, std::vector<double>> proxy_cache;
  uint64_t query_number = 0;
  const int64_t window_start = NowNs();
  {
    ScopedSpan window(tracer, "bench.window");
    for (const QuerySpec& spec : script) {
      ++query_number;
      ScopedSpan query(tracer, "bench.query", query_number);
      const core::PropagationMode mode = spec.kind == QueryKind::kLimit
                                             ? core::PropagationMode::kLimit
                                             : core::PropagationMode::kNumeric;
      const std::string key =
          spec.scorer->Name() + "#" + std::to_string(static_cast<int>(mode));
      auto cached = proxy_cache.find(key);
      if (cached == proxy_cache.end()) {
        ScopedSpan span(tracer, "core.propagate", query_number);
        cached = proxy_cache
                     .emplace(key, core::ComputeProxyScores(index, *spec.scorer,
                                                            mode))
                     .first;
      }
      labeler::CachingFallibleLabeler cache(&oracle);
      const uint64_t seed =
          api::DeriveQuerySeed(config.options.seed, query_number);
      QueryResponse response;
      {
        ScopedSpan span(tracer, QuerySpanName(spec.kind), query_number);
        const double busy = oracle.busy_seconds();
        response = RunAlgorithm(spec, cached->second, &cache, seed,
                                config.options.confidence);
        out.algorithm_labeler_s += oracle.busy_seconds() - busy;
      }
      {
        ScopedSpan span(tracer, "cluster.crack", query_number);
        std::vector<data::LabelerOutput> labels;
        labels.reserve(cache.labeled_indices().size());
        for (size_t record : cache.labeled_indices()) {
          labels.push_back(*cache.CachedLabel(record));
        }
        const size_t cracked =
            index.CrackFromLabels(cache.labeled_indices(), labels);
        out.cracked_reps += cracked;
        if (cracked > 0) proxy_cache.clear();
      }
      out.answers.push_back(AnswerDigest(response));
    }
  }
  out.query_window_s = SecondsSince(window_start);
  out.query_calls = oracle.calls() - calls_before;
  out.query_labeler_s = oracle.busy_seconds() - busy_before;
  out.scorer_calls = scorers.TotalCalls() - scorer_calls_before;
  out.scorer_s = scorers.TotalBusySeconds() - scorer_s_before;
  out.final_index = IndexDigest(index, nullptr);
  return out;
}

}  // namespace

RunResult RunSessionWorkload(const Args& args) {
  RunResult result;
  result.threads = Threads{1, 0, 0};
  Checker checker(MakeConfig(args, args.seed).options.confidence);

  // Traced runs spend half their time on untraced rounds (the overhead
  // baseline) and the rest on the traced replay of round 0.
  RoundPolicy policy = MakeConfig(args, args.seed).rounds;
  if (args.trace) policy.min_rounds = 1, policy.seconds = args.seconds / 2;
  std::unique_ptr<RoundInputs> first;
  SessionRound first_round;
  const std::vector<RoundSample> rounds = RunRounds(policy, [&](size_t r) {
    auto in = std::make_unique<RoundInputs>(args, r);
    SessionRound round = RunSessionRound(*in, r == 0);
    for (size_t i = 0; i < in->script.size(); ++i) {
      checker.Check(in->script[i], round.responses[i], in->scorers);
    }
    if (!round.ledger_problem.empty()) checker.Fail(round.ledger_problem);
    const RoundSample sample = round.sample;
    if (r == 0) {
      first = std::move(in);
      first_round = std::move(round);
    }
    return sample;
  });
  result.end_to_end = EndToEndMetrics(rounds, &result.notes);
  const std::vector<uint64_t>& first_answers = first_round.answers;
  const uint64_t first_index = first_round.final_index;
  const std::vector<QuerySpec>& script = first->script;

  Tracer tracer(args.trace);
  if (args.trace) first->scorers.SetTiming(true);
  const ReplayResult replay =
      RunReplay(*first, first_round.built_index, &tracer);
  for (const std::string& piece : replay.mismatches) {
    checker.Fail("layer replay build differs from the session's: " + piece);
  }
  if (replay.answers != first_answers) {
    checker.Fail("layer replay answers differ from the session's");
  }
  if (replay.final_index != first_index) {
    checker.Fail("layer replay final index differs from the session's");
  }
  if (replay.build_calls != rounds.front().setup_calls) {
    checker.Fail("layer replay build used " +
                 std::to_string(replay.build_calls) + " oracle calls, the "
                 "session " + std::to_string(rounds.front().setup_calls));
  }
  result.notes.push_back(
      "layer replay: answers and final index " +
      std::string(replay.answers == first_answers &&
                          replay.final_index == first_index &&
                          replay.mismatches.empty()
                      ? "bit-identical to the session"
                      : "DIFFER from the session"));

  if (args.trace) {
    // Overhead against round 0, which ran the replayed script untraced.
    const double traced_qps =
        static_cast<double>(script.size()) / replay.query_window_s;
    const double untraced_qps =
        static_cast<double>(rounds.front().queries) / rounds.front().wall_s;
    const double algorithm_s =
        tracer.SelfSeconds("queries.") - replay.algorithm_labeler_s;
    result.per_layer = {
        {"embed.triplet_train_s", tracer.TotalSeconds("embed.triplet_train"), "s"},
        {"embed.embed_s", tracer.TotalSeconds("embed.embed"), "s"},
        {"cluster.select_reps_s", tracer.TotalSeconds("cluster.select_reps"), "s"},
        {"labeler.annotate_reps_s", tracer.TotalSeconds("labeler.annotate_reps"), "s"},
        {"cluster.min_k_s", tracer.TotalSeconds("cluster.min_k"), "s"},
        {"labeler.build_calls", static_cast<double>(replay.build_calls), "calls"},
        {"core.propagate_s", tracer.TotalSeconds("core.propagate"), "s"},
        {"core.propagate_calls", static_cast<double>(tracer.Count("core.propagate")), "count"},
        {"core.scorer_calls", static_cast<double>(replay.scorer_calls), "calls"},
        {"core.scorer_s", replay.scorer_s, "s"},
        {"queries.algorithm_s", algorithm_s, "s"},
        {"cluster.crack_s", tracer.TotalSeconds("cluster.crack"), "s"},
        {"cluster.crack_reps", static_cast<double>(replay.cracked_reps), "reps"},
        {"labeler.calls", static_cast<double>(replay.query_calls), "calls"},
        {"labeler.busy_s", replay.query_labeler_s, "s"},
        {"labeler.inflight_mean", replay.query_labeler_s / replay.query_window_s, "calls"},
        {"trace.unaccounted_frac", tracer.UnaccountedFraction(), "ratio"},
        {"trace.overhead_frac", 1.0 - traced_qps / untraced_qps, "ratio"},
    };
    const std::string path = args.out_dir + "/trace-session-" +
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
