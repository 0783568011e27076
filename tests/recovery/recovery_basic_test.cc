// Conventional ARIES recovery behaviour (no delegation involved): winners
// redone, losers undone, idempotence, torn tails, buffer-pool interplay.

#include <gtest/gtest.h>

#include "core/database.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

class RecoveryBasicTest : public ::testing::TestWithParam<DelegationMode> {
 protected:
  Options MakeOptions() const {
    Options options;
    options.delegation_mode = GetParam();
    return options;
  }
};

INSTANTIATE_TEST_SUITE_P(AllModes, RecoveryBasicTest,
                         ::testing::Values(DelegationMode::kDisabled,
                                           DelegationMode::kRH,
                                           DelegationMode::kEager,
                                           DelegationMode::kLazyRewrite),
                         [](const auto& info) {
                           std::string name = DelegationModeName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST_P(RecoveryBasicTest, CommittedUpdatesSurviveCrash) {
  Database db(MakeOptions());
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 10).ok());
  ASSERT_TRUE(db.Add(t, 2, 5).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->winners, 1u);
  EXPECT_EQ(outcome->losers, 0u);
  EXPECT_EQ(*db.ReadCommitted(1), 10);
  EXPECT_EQ(*db.ReadCommitted(2), 5);
}

TEST_P(RecoveryBasicTest, UncommittedUpdatesAreLost) {
  Database db(MakeOptions());
  TxnId winner = *db.Begin();
  ASSERT_TRUE(db.Set(winner, 1, 10).ok());
  ASSERT_TRUE(db.Commit(winner).ok());

  TxnId loser = *db.Begin();
  ASSERT_TRUE(db.Set(loser, 1, 99).ok());
  ASSERT_TRUE(db.Set(loser, 2, 99).ok());
  // Force the loser's records to disk so undo has real work.
  ASSERT_TRUE(db.shard(0)->log_manager()->FlushAll().ok());

  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->losers, 1u);
  EXPECT_EQ(*db.ReadCommitted(1), 10);
  EXPECT_EQ(*db.ReadCommitted(2), 0);
}

TEST_P(RecoveryBasicTest, UnflushedTailIsSimplyGone) {
  Database db(MakeOptions());
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 10).ok());
  // No commit, no flush: the whole transaction lives in the volatile tail.
  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->winners + outcome->losers, 0u);
  EXPECT_EQ(*db.ReadCommitted(1), 0);
}

TEST_P(RecoveryBasicTest, StolenDirtyPagesAreRolledBack) {
  // STEAL: force a loser's dirty page to disk before the crash; recovery
  // must undo the on-disk value.
  Options options = MakeOptions();
  options.buffer_pool_pages = 1;  // aggressive eviction
  Database db(options);
  TxnId loser = *db.Begin();
  ASSERT_TRUE(db.Set(loser, 0, 77).ok());  // page 0
  // Touch another page: evicts page 0 (dirty, uncommitted) to disk.
  ASSERT_TRUE(db.Set(loser, kObjectsPerPage, 88).ok());
  ASSERT_TRUE(db.shard(0)->buffer_pool()->FlushAll().ok());
  EXPECT_TRUE(db.shard(0)->disk()->HasPage(0));

  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(0), 0);
  EXPECT_EQ(*db.ReadCommitted(kObjectsPerPage), 0);
}

TEST_P(RecoveryBasicTest, NoForceCommittedPagesAreRedone) {
  // NO-FORCE: commit without flushing any page; redo must reinstall.
  Database db(MakeOptions());
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 10).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  EXPECT_FALSE(db.shard(0)->disk()->HasPage(PageOf(1)));  // never flushed
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 10);
}

TEST_P(RecoveryBasicTest, AbortedBeforeCrashStaysAborted) {
  Database db(MakeOptions());
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 10).ok());
  ASSERT_TRUE(db.Abort(t).ok());
  ASSERT_TRUE(db.shard(0)->log_manager()->FlushAll().ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 0);
}

TEST_P(RecoveryBasicTest, CrashDuringRollbackResumesViaClrs) {
  // An abort whose CLRs were flushed but whose END was not: the transaction
  // is a loser at recovery, but the compensated updates must not be undone
  // twice.
  Database db(MakeOptions());
  TxnId t0 = *db.Begin();
  ASSERT_TRUE(db.Set(t0, 1, 5).ok());
  ASSERT_TRUE(db.Commit(t0).ok());

  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Add(t, 1, 100).ok());
  ASSERT_TRUE(db.Abort(t).ok());  // writes CLR (value back to 5) + END
  ASSERT_TRUE(db.shard(0)->log_manager()->FlushAll().ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 5);  // not 5-100
}

TEST_P(RecoveryBasicTest, RepeatedCrashRecoverIsIdempotent) {
  Database db(MakeOptions());
  TxnId w = *db.Begin();
  ASSERT_TRUE(db.Set(w, 1, 10).ok());
  ASSERT_TRUE(db.Add(w, 2, 3).ok());
  ASSERT_TRUE(db.Commit(w).ok());
  TxnId l = *db.Begin();
  ASSERT_TRUE(db.Add(l, 2, 100).ok());
  ASSERT_TRUE(db.shard(0)->log_manager()->FlushAll().ok());

  for (int round = 0; round < 4; ++round) {
    db.SimulateCrash();
    ASSERT_TRUE(RestartAndAwait(db).ok()) << "round " << round;
    EXPECT_EQ(*db.ReadCommitted(1), 10);
    EXPECT_EQ(*db.ReadCommitted(2), 3);
  }
}

TEST_P(RecoveryBasicTest, TornTailRecordIsDiscarded) {
  Database db(MakeOptions());
  TxnId w = *db.Begin();
  ASSERT_TRUE(db.Set(w, 1, 10).ok());
  ASSERT_TRUE(db.Commit(w).ok());
  TxnId l = *db.Begin();
  ASSERT_TRUE(db.Set(l, 2, 20).ok());
  ASSERT_TRUE(db.shard(0)->log_manager()->FlushAll().ok());
  // The last stable record is torn mid-write.
  ASSERT_TRUE(db.shard(0)->disk()->CorruptLogTail(3).ok());

  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 10);  // durable prefix intact
}

TEST_P(RecoveryBasicTest, WorkContinuesAfterRecovery) {
  Database db(MakeOptions());
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 10).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());

  TxnId t2 = *db.Begin();
  EXPECT_GT(t2, t);  // ids not reused
  ASSERT_TRUE(db.Set(t2, 1, 20).ok());
  ASSERT_TRUE(db.Commit(t2).ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 20);
}

TEST_P(RecoveryBasicTest, ApiRejectedWhileCrashed) {
  Database db(MakeOptions());
  db.SimulateCrash();
  EXPECT_TRUE(db.Begin().status().IsIllegalState());
  EXPECT_TRUE(db.ReadCommitted(1).status().IsIllegalState());
  EXPECT_TRUE(db.Checkpoint().IsIllegalState());
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_TRUE(db.Begin().ok());
}

TEST_P(RecoveryBasicTest, RecoverWithoutCrashRejected) {
  Database db(MakeOptions());
  EXPECT_TRUE(RestartAndAwait(db).status().IsIllegalState());
}

TEST_P(RecoveryBasicTest, ManyTransactionsMixedFates) {
  Database db(MakeOptions());
  int64_t committed_sum = 0;
  for (int i = 0; i < 50; ++i) {
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Add(t, 7, i).ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(db.Commit(t).ok());
      committed_sum += i;
    } else if (i % 3 == 1) {
      ASSERT_TRUE(db.Abort(t).ok());
    }
    // i % 3 == 2: left active -> loser at crash
  }
  ASSERT_TRUE(db.shard(0)->log_manager()->FlushAll().ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(7), committed_sum);
}

}  // namespace
}  // namespace ariesrh
