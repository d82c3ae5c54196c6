// Tests for src/shard/: record-range partitioning, the per-query-kind
// scatter-gather mergers, and the ShardedServer — its parallel per-shard
// construction at scaled budgets, appends to the last shard, and the
// shard-equivalence suite (K in {2,4,7} answers match K=1 semantics for
// all six query kinds), a concurrent scatter-gather test run under TSan,
// and sharded crash recovery through the per-shard durability fan-out.
//
// On equivalence: per-shard indexes are independent builds (each shard
// picks its own representatives), so K-shard answers cannot be
// bit-identical to K=1. The suite asserts the semantics instead — merged
// estimates within the error targets that per-shard guarantees compose to
// (DESIGN.md §14), union recall/precision meeting the SUPG targets, limit
// results all true matches — plus run-to-run bit-identity at fixed K in
// deterministic mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/partition.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "data/dataset.h"
#include "durable/file.h"
#include "labeler/labeler.h"
#include "queries/merge.h"
#include "queries/noguarantee.h"
#include "queries/supg.h"
#include "serve/server.h"
#include "shard/sharded_server.h"

namespace tasti::shard {
namespace {

data::Dataset TestDataset(size_t n = 1600, uint64_t seed = 71) {
  data::DatasetOptions opts;
  opts.num_records = n;
  opts.seed = seed;
  return data::MakeNightStreet(opts);
}

core::IndexOptions FastIndexOptions() {
  core::IndexOptions opts;
  opts.num_training_records = 160;
  opts.num_representatives = 160;
  opts.embedding_dim = 32;
  opts.hidden_dim = 64;
  opts.epochs = 10;
  opts.seed = 77;
  return opts;
}

// --- Partitioner ---

TEST(PartitionerTest, BalancedContiguousSplit) {
  core::Partitioner p(10, 3);
  ASSERT_EQ(p.num_shards(), 3u);
  EXPECT_EQ(p.num_records(), 10u);
  // 10 = 4 + 3 + 3: earlier shards absorb the remainder.
  EXPECT_EQ(p.ShardSize(0), 4u);
  EXPECT_EQ(p.ShardSize(1), 3u);
  EXPECT_EQ(p.ShardSize(2), 3u);
  EXPECT_EQ(p.ShardBegin(0), 0u);
  EXPECT_EQ(p.ShardEnd(2), 10u);
  // Ranges tile [0, N) with no gaps.
  for (size_t s = 1; s < p.num_shards(); ++s) {
    EXPECT_EQ(p.ShardBegin(s), p.ShardEnd(s - 1));
  }
}

TEST(PartitionerTest, ShardOfAndLocalGlobalRoundTrip) {
  core::Partitioner p(100, 7);
  for (size_t id = 0; id < 100; ++id) {
    const size_t s = p.ShardOf(id);
    EXPECT_GE(id, p.ShardBegin(s));
    EXPECT_LT(id, p.ShardEnd(s));
    EXPECT_EQ(p.ToGlobal(s, p.ToLocal(id)), id);
  }
}

TEST(PartitionerTest, MoreShardsThanRecordsLeavesEmptyShards) {
  core::Partitioner p(3, 5);
  EXPECT_EQ(p.num_shards(), 5u);
  EXPECT_EQ(p.ShardSize(0), 1u);
  EXPECT_EQ(p.ShardSize(3), 0u);
  EXPECT_EQ(p.ShardSize(4), 0u);
  // Every record still maps to a non-empty shard.
  for (size_t id = 0; id < 3; ++id) {
    EXPECT_GT(p.ShardSize(p.ShardOf(id)), 0u);
  }
}

TEST(PartitionerTest, AppendsExtendTheLastShard) {
  core::Partitioner p(10, 2);
  p.ExtendLastShard(4);
  EXPECT_EQ(p.num_records(), 14u);
  EXPECT_EQ(p.ShardSize(0), 5u);
  EXPECT_EQ(p.ShardSize(1), 9u);
  EXPECT_EQ(p.ShardOf(13), 1u);
  // Ids beyond the current range belong to the last shard too.
  EXPECT_EQ(p.ShardOf(99), 1u);
}

// --- Mergers ---

TEST(MergeTest, ShardConfidenceComposesByUnionBound) {
  EXPECT_DOUBLE_EQ(queries::ShardConfidence(0.95, 1), 0.95);
  const double per_shard = queries::ShardConfidence(0.95, 4);
  // K shards each failing with prob (1-c)/K jointly fail with prob <= 1-c.
  EXPECT_DOUBLE_EQ(1.0 - 4 * (1.0 - per_shard), 0.95);
  EXPECT_GT(per_shard, 0.95);
}

TEST(MergeTest, SplitBudgetIsProportionalAndCoversEveryShard) {
  const std::vector<size_t> sizes = {500, 300, 200, 0};
  const std::vector<size_t> split = queries::SplitBudget(100, sizes);
  EXPECT_EQ(split[0], 50u);
  EXPECT_EQ(split[1], 30u);
  EXPECT_EQ(split[2], 20u);
  EXPECT_EQ(split[3], 0u);  // empty shard gets nothing
  // Tiny budgets still give every non-empty shard one call.
  const std::vector<size_t> tiny = queries::SplitBudget(2, sizes);
  EXPECT_GE(tiny[0], 1u);
  EXPECT_GE(tiny[1], 1u);
  EXPECT_GE(tiny[2], 1u);
}

TEST(MergeTest, MergeAggregatesIsRecordWeighted) {
  std::vector<queries::AggregationResult> parts(2);
  parts[0].estimate = 1.0;
  parts[0].half_width = 0.1;
  parts[0].labeler_invocations = 40;
  parts[0].converged = true;
  parts[1].estimate = 4.0;
  parts[1].half_width = 0.3;
  parts[1].labeler_invocations = 60;
  parts[1].converged = true;
  const auto merged = queries::MergeAggregates(parts, {300, 100},
                                               {true, true}, nullptr);
  EXPECT_NEAR(merged.estimate, 0.75 * 1.0 + 0.25 * 4.0, 1e-12);
  EXPECT_NEAR(merged.half_width, 0.75 * 0.1 + 0.25 * 0.3, 1e-12);
  EXPECT_EQ(merged.labeler_invocations, 100u);
  EXPECT_TRUE(merged.converged);
  parts[1].converged = false;
  EXPECT_FALSE(
      queries::MergeAggregates(parts, {300, 100}, {true, true}, nullptr)
          .converged);
}

TEST(MergeTest, MergePredicateAggregatesWeighsByMatchMass) {
  std::vector<queries::PredicateAggregationResult> parts(2);
  // Shard 0: 100 records, 10/20 samples matched, mean 2.0.
  parts[0].estimate = 2.0;
  parts[0].sample_matches = 10;
  parts[0].labeler_invocations = 20;
  parts[0].converged = true;
  // Shard 1: 300 records, 5/20 samples matched, mean 6.0.
  parts[1].estimate = 6.0;
  parts[1].sample_matches = 5;
  parts[1].labeler_invocations = 20;
  parts[1].converged = true;
  // Match masses: 100 * 0.5 = 50 and 300 * 0.25 = 75.
  const auto merged = queries::MergePredicateAggregates(
      parts, {100, 300}, {true, true}, nullptr);
  EXPECT_NEAR(merged.estimate, (50.0 * 2.0 + 75.0 * 6.0) / 125.0, 1e-12);
  EXPECT_EQ(merged.sample_matches, 15u);
  EXPECT_TRUE(merged.converged);

  // A shard with no observed matches contributes no weight...
  parts[1].sample_matches = 0;
  const auto skewed = queries::MergePredicateAggregates(
      parts, {100, 300}, {true, true}, nullptr);
  EXPECT_NEAR(skewed.estimate, 2.0, 1e-12);
  // ...and if no shard matched at all, the merge reports non-convergence.
  parts[0].sample_matches = 0;
  EXPECT_FALSE(queries::MergePredicateAggregates(parts, {100, 300},
                                                 {true, true}, nullptr)
                   .converged);
}

TEST(MergeTest, MergeSupgUnionsGlobalIdsSorted) {
  std::vector<queries::SupgResult> parts(2);
  parts[0].selected = {2, 0};
  parts[0].threshold = 0.5;
  parts[0].labeler_invocations = 10;
  parts[1].selected = {1, 3};
  parts[1].threshold = 0.3;
  parts[1].labeler_invocations = 12;
  const auto merged =
      queries::MergeSupg(parts, {0, 100}, {100, 100}, {true, true},
                         /*recall_target=*/0.0, nullptr);
  EXPECT_EQ(merged.selected, (std::vector<size_t>{0, 2, 101, 103}));
  EXPECT_DOUBLE_EQ(merged.threshold, 0.3);  // loosest admitted
  EXPECT_EQ(merged.labeler_invocations, 22u);
}

TEST(MergeTest, MergeLimitsInterleavesByRankAndTruncates) {
  std::vector<queries::LimitResult> parts(2);
  parts[0].found = {5, 6, 7};  // shard 0 examined these in this order
  parts[0].labeler_invocations = 9;
  parts[1].found = {1, 2};
  parts[1].labeler_invocations = 4;
  const auto merged = queries::MergeLimits(parts, {0, 100}, {100, 100},
                                           {true, true}, 3, nullptr);
  // Rank 0 of each shard first, then rank 1 of the first shard.
  EXPECT_EQ(merged.found, (std::vector<size_t>{5, 101, 6}));
  EXPECT_TRUE(merged.satisfied);
  EXPECT_EQ(merged.labeler_invocations, 13u);

  // Early termination: fewer partials than shards is fine.
  std::vector<queries::LimitResult> one(1);
  one[0].found = {4, 8};
  const auto early = queries::MergeLimits(one, {0, 100}, {100, 100},
                                          {true, true}, 2, nullptr);
  EXPECT_EQ(early.found, (std::vector<size_t>{4, 8}));
  EXPECT_TRUE(early.satisfied);
}

// --- ShardedServer: construction and appends ---

TEST(ShardedServerTest, StartBuildsEveryShardAtScaledBudgets) {
  data::Dataset ds = TestDataset(900);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ShardedServerOptions opts;
  opts.num_shards = 3;
  opts.server.index = FastIndexOptions();
  opts.server.num_workers = 1;
  ShardedServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());

  ASSERT_EQ(server.num_shards(), 3u);
  size_t representatives = 0;
  size_t view_calls = 0;
  for (size_t s = 0; s < 3; ++s) {
    const auto snapshot = server.shard(s).epochs().Acquire();
    EXPECT_EQ(snapshot->num_records, server.partitioner().ShardSize(s));
    EXPECT_GT(snapshot->rep_record_ids.size(), 0u);
    representatives += snapshot->rep_record_ids.size();
    // Scaled budgets: each shard builds with reps/K representatives.
    EXPECT_EQ(server.shard(s).options().index.num_representatives,
              opts.server.index.num_representatives / 3);
    EXPECT_GT(server.shard(s).index_invocations(), 0u);
    view_calls += server.shard_view(s)->invocations();
  }
  // The sharded build spends about what K=1 would, not K times it.
  EXPECT_LE(representatives,
            opts.server.index.num_representatives + opts.num_shards);
  // Every view call landed on the global oracle exactly once.
  EXPECT_EQ(view_calls, oracle.invocations());
  server.Shutdown();
}

TEST(ShardedServerTest, LimitEarlyStopIsAFullGather) {
  data::Dataset ds = TestDataset(900);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ShardedServerOptions opts;
  opts.num_shards = 3;
  opts.partial_gather = true;
  opts.server.index = FastIndexOptions();
  opts.server.num_workers = 1;
  ShardedServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());

  core::PresenceScorer cars(data::ObjectClass::kCar);
  serve::QuerySpec spec;
  spec.kind = serve::QueryKind::kLimit;
  spec.scorer = &cars;
  spec.want = 3;
  const ShardedQueryResponse r = server.Execute(spec);
  ASSERT_TRUE(r.merged.status.ok());
  ASSERT_LT(r.shards_queried, 3u);  // car-rich: the first shard suffices
  // Shards the early stop never asked are not missing mass.
  EXPECT_FALSE(r.degraded_gather);
  EXPECT_FALSE(r.merged.degraded);
  EXPECT_EQ(r.quality.absent, 0u);
  EXPECT_DOUBLE_EQ(r.quality.covered_fraction, 1.0);
  EXPECT_TRUE(r.merged.limit.satisfied);
  server.Shutdown();
}

TEST(ShardedServerTest, AppendsExtendTheLastShard) {
  data::Dataset ds = TestDataset(600);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ShardedServerOptions opts;
  opts.num_shards = 2;
  opts.server.index = FastIndexOptions();
  opts.server.num_workers = 1;
  ShardedServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());

  data::Dataset extra = TestDataset(40, /*seed=*/123);
  const std::vector<uint64_t> epochs = server.shard_epochs();
  const size_t before_last = server.shard(1).epochs().Acquire()->num_records;
  const size_t first = server.AppendRecords(extra.features);
  EXPECT_EQ(first, 600u);  // global ids stay dense
  EXPECT_EQ(server.shard(1).epochs().Acquire()->num_records,
            before_last + 40);
  EXPECT_EQ(server.partitioner().num_records(), 640u);
  EXPECT_EQ(server.partitioner().ShardOf(639), 1u);
  // Only the last shard republished; shard 0 is untouched.
  EXPECT_EQ(server.shard(0).epochs().Acquire()->num_records,
            server.partitioner().ShardSize(0));
  EXPECT_EQ(server.shard_epochs(),
            (std::vector<uint64_t>{epochs[0], epochs[1] + 1}));
  server.Shutdown();
}

// --- ShardedServer: equivalence suite ---

/// Builds the K=1,2,4,7 servers once: index construction dominates the
/// suite's runtime and every equivalence test reads the same servers.
class ShardEquivalenceTest : public ::testing::Test {
 protected:
  static constexpr size_t kShardCounts[4] = {1, 2, 4, 7};

  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(TestDataset(1600));
    // Each server gets its own oracle: the cross-shard attribution check
    // compares against the calls *its* oracle saw, so sharing one across
    // servers would pollute the ledger.
    for (size_t k : kShardCounts) {
      oracles_.push_back(new labeler::SimulatedLabeler(dataset_));
      adapters_.push_back(new labeler::FallibleAdapter(oracles_.back()));
      auto* server = new ShardedServer(dataset_, adapters_.back(), Options(k));
      ASSERT_TRUE(server->Start().ok());
      servers_.push_back(server);
    }
  }

  static void TearDownTestSuite() {
    for (ShardedServer* server : servers_) {
      server->Shutdown();
      delete server;
    }
    servers_.clear();
    for (auto* a : adapters_) delete a;
    adapters_.clear();
    for (auto* o : oracles_) delete o;
    oracles_.clear();
    delete dataset_;
  }

  static ShardedServerOptions Options(size_t k) {
    ShardedServerOptions opts;
    opts.num_shards = k;
    opts.server.index = FastIndexOptions();
    opts.server.num_workers = 2;
    opts.server.seed = 72;
    opts.server.deterministic = true;
    return opts;
  }

  static ShardedServer& ServerFor(size_t k) {
    for (size_t i = 0; i < 4; ++i) {
      if (kShardCounts[i] == k) return *servers_[i];
    }
    TASTI_CHECK(false, "unknown shard count");
    return *servers_[0];
  }

  static data::Dataset* dataset_;
  static std::vector<labeler::SimulatedLabeler*> oracles_;
  static std::vector<labeler::FallibleAdapter*> adapters_;
  static std::vector<ShardedServer*> servers_;
};

data::Dataset* ShardEquivalenceTest::dataset_ = nullptr;
std::vector<labeler::SimulatedLabeler*> ShardEquivalenceTest::oracles_;
std::vector<labeler::FallibleAdapter*> ShardEquivalenceTest::adapters_;
std::vector<ShardedServer*> ShardEquivalenceTest::servers_;
constexpr size_t ShardEquivalenceTest::kShardCounts[4];

TEST_F(ShardEquivalenceTest, AggregateMatchesAcrossShardCounts) {
  core::CountScorer cars(data::ObjectClass::kCar);
  const std::vector<double> exact = core::ExactScores(*dataset_, cars);
  double truth = 0.0;
  for (double v : exact) truth += v;
  truth /= static_cast<double>(exact.size());

  serve::QuerySpec spec;
  spec.kind = serve::QueryKind::kAggregate;
  spec.scorer = &cars;
  spec.error_target = 0.15;

  for (size_t k : kShardCounts) {
    ShardedQueryResponse r = ServerFor(k).Execute(spec);
    ASSERT_TRUE(r.merged.status.ok()) << "K=" << k;
    EXPECT_EQ(r.shards_queried, k);
    // Per-shard absolute-error guarantees compose to the same target.
    EXPECT_NEAR(r.merged.aggregate.estimate, truth, spec.error_target)
        << "K=" << k;
    // No half-width cap: a small shard may exhaust its records and answer
    // exactly while still reporting the (loose) EB width at n samples.
    EXPECT_GT(r.merged.aggregate.half_width, 0.0) << "K=" << k;
    EXPECT_TRUE(r.merged.aggregate.converged) << "K=" << k;
    EXPECT_GT(r.merged.aggregate.labeler_invocations, 0u) << "K=" << k;
  }
}

TEST_F(ShardEquivalenceTest, AggregateWhereMatchesAcrossShardCounts) {
  core::PresenceScorer present(data::ObjectClass::kCar);
  core::CountScorer cars(data::ObjectClass::kCar);
  const std::vector<double> predicate = core::ExactScores(*dataset_, present);
  const std::vector<double> stat = core::ExactScores(*dataset_, cars);
  double truth = 0.0;
  size_t matches = 0;
  for (size_t i = 0; i < predicate.size(); ++i) {
    if (predicate[i] > 0) {
      truth += stat[i];
      ++matches;
    }
  }
  ASSERT_GT(matches, 0u);
  truth /= static_cast<double>(matches);

  serve::QuerySpec spec;
  spec.kind = serve::QueryKind::kAggregateWhere;
  spec.scorer = &present;
  spec.statistic = &cars;
  spec.error_target = 0.2;

  for (size_t k : kShardCounts) {
    ShardedQueryResponse r = ServerFor(k).Execute(spec);
    ASSERT_TRUE(r.merged.status.ok()) << "K=" << k;
    // The self-normalized combine is an estimate of an estimate; allow
    // twice the single-shard target.
    EXPECT_NEAR(r.merged.aggregate_where.estimate, truth,
                2.0 * spec.error_target)
        << "K=" << k;
    EXPECT_GT(r.merged.aggregate_where.sample_matches, 0u) << "K=" << k;
  }
}

TEST_F(ShardEquivalenceTest, SupgRecallTargetHoldsForTheUnion) {
  core::PresenceScorer present(data::ObjectClass::kBus);
  const std::vector<double> exact = core::ExactScores(*dataset_, present);

  serve::QuerySpec spec;
  spec.kind = serve::QueryKind::kSupgRecall;
  spec.scorer = &present;
  spec.target = 0.9;
  spec.budget = 500;

  for (size_t k : kShardCounts) {
    ShardedQueryResponse r = ServerFor(k).Execute(spec);
    ASSERT_TRUE(r.merged.status.ok()) << "K=" << k;
    // Each shard covers >= target of its own matches, so the union covers
    // >= target of all matches (modulo sampling noise at the composed
    // confidence; allow a small slack).
    EXPECT_GE(queries::AchievedRecall(r.merged.supg.selected, exact),
              spec.target - 0.05)
        << "K=" << k;
    // Selected ids are valid, sorted, and unique global ids.
    const auto& sel = r.merged.supg.selected;
    EXPECT_TRUE(std::is_sorted(sel.begin(), sel.end())) << "K=" << k;
    EXPECT_TRUE(std::adjacent_find(sel.begin(), sel.end()) == sel.end())
        << "K=" << k;
    if (!sel.empty()) {
      EXPECT_LT(sel.back(), dataset_->size()) << "K=" << k;
    }
  }
}

TEST_F(ShardEquivalenceTest, SupgPrecisionTargetHoldsForTheUnion) {
  core::PresenceScorer present(data::ObjectClass::kBus);
  const std::vector<double> exact = core::ExactScores(*dataset_, present);

  serve::QuerySpec spec;
  spec.kind = serve::QueryKind::kSupgPrecision;
  spec.scorer = &present;
  spec.target = 0.85;
  spec.budget = 500;

  for (size_t k : kShardCounts) {
    ShardedQueryResponse r = ServerFor(k).Execute(spec);
    ASSERT_TRUE(r.merged.status.ok()) << "K=" << k;
    // Precision of a union is the match-weighted mean of shard precisions,
    // so per-shard targets carry over (again modulo sampling slack).
    EXPECT_GE(queries::AchievedPrecision(r.merged.supg.selected, exact),
              spec.target - 0.05)
        << "K=" << k;
  }
}

TEST_F(ShardEquivalenceTest, ThresholdSelectStaysUseful) {
  core::PresenceScorer present(data::ObjectClass::kCar);
  const std::vector<double> exact = core::ExactScores(*dataset_, present);

  serve::QuerySpec spec;
  spec.kind = serve::QueryKind::kThresholdSelect;
  spec.scorer = &present;
  spec.validation_budget = 420;

  const double f1_baseline =
      queries::F1Score(ServerFor(1).Execute(spec).merged.select.selected,
                       exact);
  EXPECT_GT(f1_baseline, 0.5);
  for (size_t k : kShardCounts) {
    if (k == 1) continue;
    ShardedQueryResponse r = ServerFor(k).Execute(spec);
    ASSERT_TRUE(r.merged.status.ok()) << "K=" << k;
    const double f1 =
        queries::F1Score(r.merged.select.selected, exact);
    // No-guarantee query: each shard fits its F1-optimal threshold on its
    // own (budget-scaled, hence weaker) proxy, so the union tracks the
    // K=1 regime but does not match it — assert usefulness plus merge
    // correctness, not parity.
    EXPECT_GT(f1, 0.5) << "K=" << k;
    EXPECT_FALSE(r.merged.select.selected.empty()) << "K=" << k;
    const auto& sel = r.merged.select.selected;
    EXPECT_TRUE(std::is_sorted(sel.begin(), sel.end())) << "K=" << k;
    EXPECT_TRUE(std::adjacent_find(sel.begin(), sel.end()) == sel.end())
        << "K=" << k;
    EXPECT_LT(sel.back(), dataset_->size()) << "K=" << k;
    EXPECT_GT(r.merged.select.validation_f1, 0.5) << "K=" << k;
  }
}

TEST_F(ShardEquivalenceTest, LimitFindsTrueMatchesAtEveryShardCount) {
  core::PresenceScorer present(data::ObjectClass::kCar);
  const std::vector<double> exact = core::ExactScores(*dataset_, present);

  serve::QuerySpec spec;
  spec.kind = serve::QueryKind::kLimit;
  spec.scorer = &present;
  spec.want = 10;

  for (size_t k : kShardCounts) {
    ShardedQueryResponse r = ServerFor(k).Execute(spec);
    ASSERT_TRUE(r.merged.status.ok()) << "K=" << k;
    EXPECT_TRUE(r.merged.limit.satisfied) << "K=" << k;
    EXPECT_EQ(r.merged.limit.found.size(), spec.want) << "K=" << k;
    // Every returned record genuinely matches: the deterministic
    // equivalence for limit queries.
    for (size_t id : r.merged.limit.found) {
      ASSERT_LT(id, exact.size());
      EXPECT_GT(exact[id], 0.0) << "K=" << k << " id=" << id;
    }
    // A car-rich dataset satisfies `want` early: with early stop on, not
    // every shard should have been consulted at higher K.
    if (k >= 4) {
      EXPECT_LT(r.shards_queried, k) << "K=" << k;
    }
  }
}

TEST_F(ShardEquivalenceTest, DeterministicModeIsReproducibleAtFixedK) {
  // A second server with identical options must produce bit-identical
  // merged payloads: same per-shard seeds, same deterministic waves.
  core::CountScorer cars(data::ObjectClass::kCar);
  serve::QuerySpec spec;
  spec.kind = serve::QueryKind::kAggregate;
  spec.scorer = &cars;
  spec.error_target = 0.15;

  // ServerFor(4) has served other tests' queries (its epochs moved), so
  // compare two fresh servers, each with its own oracle.
  labeler::SimulatedLabeler oracle_a(dataset_);
  labeler::FallibleAdapter adapter_a(&oracle_a);
  ShardedServer rerun(dataset_, &adapter_a, Options(4));
  ASSERT_TRUE(rerun.Start().ok());
  ShardedQueryResponse a = rerun.Execute(spec);
  labeler::SimulatedLabeler oracle_b(dataset_);
  labeler::FallibleAdapter adapter_b(&oracle_b);
  ShardedServer rerun2(dataset_, &adapter_b, Options(4));
  ASSERT_TRUE(rerun2.Start().ok());
  ShardedQueryResponse b = rerun2.Execute(spec);
  EXPECT_DOUBLE_EQ(a.merged.aggregate.estimate, b.merged.aggregate.estimate);
  EXPECT_DOUBLE_EQ(a.merged.aggregate.half_width,
                   b.merged.aggregate.half_width);
  ASSERT_EQ(a.partials.size(), b.partials.size());
  for (size_t s = 0; s < a.partials.size(); ++s) {
    EXPECT_DOUBLE_EQ(a.partials[s].aggregate.estimate,
                     b.partials[s].aggregate.estimate);
  }
  rerun.Shutdown();
  rerun2.Shutdown();
}

TEST_F(ShardEquivalenceTest, AttributionInvariantHoldsAcrossShards) {
  for (size_t k : kShardCounts) {
    ShardedServer& server = ServerFor(k);
    server.Drain();
    EXPECT_TRUE(server.CheckAttributionInvariant().ok()) << "K=" << k;
  }
}

// --- ShardedServer: concurrent scatter-gather (TSan) ---

TEST(ShardedServerConcurrencyTest, ConcurrentQueriesAcrossShardsAreClean) {
  data::Dataset ds = TestDataset(800, /*seed=*/81);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ShardedServerOptions opts;
  opts.num_shards = 2;
  opts.server.index = FastIndexOptions();
  opts.server.num_workers = 2;
  opts.server.seed = 83;
  ShardedServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());

  core::CountScorer cars(data::ObjectClass::kCar);
  core::PresenceScorer present(data::ObjectClass::kCar);
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      for (size_t q = 0; q < 3; ++q) {
        serve::QuerySpec spec;
        spec.client_id = t;
        switch ((t + q) % 3) {
          case 0:
            spec.kind = serve::QueryKind::kAggregate;
            spec.scorer = &cars;
            spec.error_target = 0.2;
            break;
          case 1:
            spec.kind = serve::QueryKind::kSupgRecall;
            spec.scorer = &present;
            spec.target = 0.9;
            spec.budget = 120;
            break;
          default:
            spec.kind = serve::QueryKind::kLimit;
            spec.scorer = &present;
            spec.want = 5;
            break;
        }
        ShardedQueryResponse r = server.Execute(spec);
        if (!r.merged.status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0u);

  server.Drain();
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_completed, stats.queries_submitted);
  server.Shutdown();
}

// --- ShardedServer: crash recovery fan-out ---

std::string ShardTestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);  // clean slate across re-runs
  return dir;
}

TEST(ShardedRecoveryTest, RecoversEveryShardBitIdentical) {
  data::Dataset ds = TestDataset(800, /*seed=*/91);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  const std::string dir = ShardTestDir("sharded_recover");
  durable::File fs;

  ShardedServerOptions opts;
  opts.num_shards = 3;
  opts.server.index = FastIndexOptions();
  opts.server.num_workers = 1;
  opts.server.seed = 92;
  opts.server.durability.dir = dir;
  opts.server.durability.fs = &fs;

  ShardedServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());

  // Queries whose cracks publish durable epochs on multiple shards.
  core::CountScorer cars(data::ObjectClass::kCar);
  core::PresenceScorer present(data::ObjectClass::kCar);
  serve::QuerySpec agg;
  agg.kind = serve::QueryKind::kAggregate;
  agg.scorer = &cars;
  agg.error_target = 0.2;
  serve::QuerySpec supg;
  supg.kind = serve::QueryKind::kSupgRecall;
  supg.scorer = &present;
  supg.target = 0.9;
  supg.budget = 150;
  EXPECT_TRUE(server.Execute(agg).merged.status.ok());
  EXPECT_TRUE(server.Execute(supg).merged.status.ok());
  server.Drain();

  const std::vector<uint64_t> epochs = server.shard_epochs();
  Result<std::string> want = server.SerializeIndex();
  ASSERT_TRUE(want.ok());

  // Crash during shutdown: every epoch publish above already hit its
  // fsync barrier, so recovery must reproduce the drained state from the
  // per-shard WALs/checkpoints alone.
  fs.ArmCrash(/*ops_from_now=*/1, /*seed=*/7);
  server.Shutdown();

  durable::File clean;
  ShardedServerOptions ropts = opts;
  ropts.server.durability.fs = &clean;
  ShardedServer revived(&ds, &adapter, ropts);
  ASSERT_TRUE(revived.RecoverFrom(dir).ok());
  EXPECT_EQ(revived.shard_epochs(), epochs);
  Result<std::string> got = revived.SerializeIndex();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *want);  // bit-identical on every shard

  // The recovered deployment keeps serving.
  EXPECT_TRUE(revived.Execute(agg).merged.status.ok());
  revived.Shutdown();
}

TEST(ShardedRecoveryTest, MissingShardStateReportsNotFound) {
  data::Dataset ds = TestDataset(400, /*seed=*/93);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ShardedServerOptions opts;
  opts.num_shards = 2;
  opts.server.index = FastIndexOptions();
  opts.server.durability.dir = ShardTestDir("sharded_recover_missing");
  ShardedServer server(&ds, &adapter, opts);
  const Status status = server.RecoverFrom();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace tasti::shard
