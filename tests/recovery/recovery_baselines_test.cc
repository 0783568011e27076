// The history-rewriting baselines (eager, lazy-rewrite) must produce exactly
// the same post-recovery state as ARIES/RH — they differ only in *how* (and
// at what cost) they realize the rewrite. These tests run the same
// delegation scenarios through every mode and compare end states, then check
// the cost signatures (RH never rewrites the log; eager rewrites during
// normal processing; lazy rewrites during recovery).

#include <gtest/gtest.h>

#include <functional>

#include "core/database.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

struct Scenario {
  const char* name;
  std::function<void(Database&)> run;
  std::vector<ObjectId> objects;
};

// Each scenario drives a delegation-heavy history and leaves the database
// about to crash; ASSERT-free lambdas keep the fixture simple.
std::vector<Scenario> Scenarios() {
  return {
      {"delegate_then_delegatee_commits",
       [](Database& db) {
         TxnId t0 = *db.Begin(), t1 = *db.Begin();
         (void)db.Set(t0, 1, 42);
         (void)db.Delegate(t0, t1, DelegationSpec::Objects({1}));
         (void)db.Commit(t1);
       },
       {1}},
      {"delegate_then_invoker_commits",
       [](Database& db) {
         TxnId t0 = *db.Begin(), t1 = *db.Begin();
         (void)db.Set(t0, 1, 42);
         (void)db.Delegate(t0, t1, DelegationSpec::Objects({1}));
         (void)db.Commit(t0);
       },
       {1}},
      {"example2_increments",
       [](Database& db) {
         TxnId t = *db.Begin(), t1 = *db.Begin(), t2 = *db.Begin();
         (void)db.Add(t, 1, 100);
         (void)db.Delegate(t, t1, DelegationSpec::Objects({1}));
         (void)db.Add(t, 1, 23);
         (void)db.Delegate(t, t2, DelegationSpec::Objects({1}));
         (void)db.Abort(t2);
         (void)db.Commit(t1);
         (void)db.Commit(t);
       },
       {1}},
      {"chain_of_three",
       [](Database& db) {
         TxnId t0 = *db.Begin(), t1 = *db.Begin(), t2 = *db.Begin();
         (void)db.Set(t0, 1, 7);
         (void)db.Set(t0, 2, 8);
         (void)db.Delegate(t0, t1, DelegationSpec::Objects({1, 2}));
         (void)db.Delegate(t1, t2, DelegationSpec::Objects({1}));
         (void)db.Commit(t2);
         (void)db.Abort(t1);
         (void)db.Commit(t0);
       },
       {1, 2}},
      {"interleaved_objects",
       [](Database& db) {
         TxnId a = *db.Begin(), b = *db.Begin(), c = *db.Begin();
         (void)db.Set(a, 1, 10);
         (void)db.Set(b, 2, 20);
         (void)db.Set(a, 3, 30);
         (void)db.Delegate(a, c, DelegationSpec::Objects({1, 3}));
         (void)db.Commit(a);
         (void)db.Commit(c);
         // b stays active -> loser
         (void)db.shard(0)->log_manager()->FlushAll();
       },
       {1, 2, 3}},
  };
}

class BaselineEquivalenceTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Scenarios, BaselineEquivalenceTest,
                         ::testing::Range<size_t>(0, 5),
                         [](const auto& info) {
                           return Scenarios()[info.param].name;
                         });

TEST_P(BaselineEquivalenceTest, AllModesAgreeAfterRecovery) {
  const Scenario scenario = Scenarios()[GetParam()];

  std::map<DelegationMode, std::map<ObjectId, int64_t>> results;
  for (DelegationMode mode : {DelegationMode::kRH, DelegationMode::kEager,
                              DelegationMode::kLazyRewrite}) {
    Options options;
    options.delegation_mode = mode;
    Database db(options);
    scenario.run(db);
    db.SimulateCrash();
    Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
    ASSERT_TRUE(outcome.ok())
        << DelegationModeName(mode) << ": " << outcome.status().ToString();
    for (ObjectId ob : scenario.objects) {
      results[mode][ob] = *db.ReadCommitted(ob);
    }
  }
  EXPECT_EQ(results[DelegationMode::kEager], results[DelegationMode::kRH])
      << "eager diverged from RH";
  EXPECT_EQ(results[DelegationMode::kLazyRewrite],
            results[DelegationMode::kRH])
      << "lazy-rewrite diverged from RH";
}

TEST_P(BaselineEquivalenceTest, NormalProcessingStatesAgreeWithoutCrash) {
  const Scenario scenario = Scenarios()[GetParam()];
  std::map<DelegationMode, std::map<ObjectId, int64_t>> results;
  for (DelegationMode mode : {DelegationMode::kRH, DelegationMode::kEager,
                              DelegationMode::kLazyRewrite}) {
    Options options;
    options.delegation_mode = mode;
    Database db(options);
    scenario.run(db);
    for (ObjectId ob : scenario.objects) {
      results[mode][ob] = *db.ReadCommitted(ob);
    }
  }
  EXPECT_EQ(results[DelegationMode::kEager], results[DelegationMode::kRH]);
  EXPECT_EQ(results[DelegationMode::kLazyRewrite],
            results[DelegationMode::kRH]);
}

TEST(BaselineCostTest, EagerRewritesStableLogAtDelegateTime) {
  Options options;
  options.delegation_mode = DelegationMode::kEager;
  Database db(options);
  TxnId t0 = *db.Begin();
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t0, 1, 10).ok());
  ASSERT_TRUE(db.Set(t0, 2, 20).ok());
  // Force the records to stable storage so the rewrite hits the disk.
  ASSERT_TRUE(db.shard(0)->log_manager()->FlushAll().ok());
  const Stats before = db.stats();
  ASSERT_TRUE(db.Delegate(t0, t1, DelegationSpec::Objects({1, 2})).ok());
  const Stats delta = db.stats().Delta(before);
  EXPECT_GT(delta.log_rewrites, 0u);     // physical history rewriting
  EXPECT_GT(delta.log_random_reads, 0u); // chain walking
}

TEST(BaselineCostTest, RhOnlyAppendsAtDelegateTime) {
  Database db;  // default kRH
  TxnId t0 = *db.Begin();
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t0, 1, 10).ok());
  ASSERT_TRUE(db.Set(t0, 2, 20).ok());
  ASSERT_TRUE(db.shard(0)->log_manager()->FlushAll().ok());
  const Stats before = db.stats();
  ASSERT_TRUE(db.Delegate(t0, t1, DelegationSpec::Objects({1, 2})).ok());
  const Stats delta = db.stats().Delta(before);
  EXPECT_EQ(delta.log_rewrites, 0u);
  EXPECT_EQ(delta.log_random_reads, 0u);
  EXPECT_EQ(delta.log_appends, 1u);  // exactly one DELEGATE record
}

TEST(BaselineCostTest, LazyRewriteDefersCostToRecovery) {
  Options options;
  options.delegation_mode = DelegationMode::kLazyRewrite;
  Database db(options);
  TxnId t0 = *db.Begin();
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t0, 1, 10).ok());
  ASSERT_TRUE(db.shard(0)->log_manager()->FlushAll().ok());
  const Stats before_delegate = db.stats();
  ASSERT_TRUE(db.Delegate(t0, t1, DelegationSpec::Objects({1})).ok());
  EXPECT_EQ(db.stats().Delta(before_delegate).log_rewrites, 0u);

  ASSERT_TRUE(db.Commit(t1).ok());
  db.SimulateCrash();
  const Stats before_recovery = db.stats();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  // Recovery physically rewrote history.
  EXPECT_GT(db.stats().Delta(before_recovery).log_rewrites, 0u);
  EXPECT_EQ(*db.ReadCommitted(1), 10);
}

TEST(BaselineCostTest, EagerCostGrowsWithChainLength) {
  // The longer the delegator's history, the more records an eager
  // delegation must visit — the paper's core complaint about Figure 1.
  uint64_t reads_short = 0, reads_long = 0;
  for (int n : {4, 64}) {
    Options options;
    options.delegation_mode = DelegationMode::kEager;
    Database db(options);
    TxnId t0 = *db.Begin();
    TxnId t1 = *db.Begin();
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(db.Add(t0, 1, 1).ok());
    }
    ASSERT_TRUE(db.shard(0)->log_manager()->FlushAll().ok());
    const Stats before = db.stats();
    ASSERT_TRUE(db.Delegate(t0, t1, DelegationSpec::Objects({1})).ok());
    const uint64_t reads = db.stats().Delta(before).log_random_reads +
                           db.stats().Delta(before).log_seq_reads;
    (n == 4 ? reads_short : reads_long) = reads;
  }
  EXPECT_GT(reads_long, reads_short * 4);
}

}  // namespace
}  // namespace ariesrh
