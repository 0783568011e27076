// Crash recovery in the presence of delegation — the paper's core claims
// (Section 4.1): updates ultimately delegated to a winner are redone,
// updates ultimately delegated to a loser are undone, no matter who invoked
// them or what became of the intermediate delegators.

#include <gtest/gtest.h>

#include "core/database.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

class RecoveryDelegationTest : public ::testing::Test {
 protected:
  Database db_;

  void FlushLog() { ASSERT_TRUE(db_.shard(0)->log_manager()->FlushAll().ok()); }
  void CrashAndRecover() {
    db_.SimulateCrash();
    Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db_);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  }
};

TEST_F(RecoveryDelegationTest, DelegateeCommittedBeforeCrashUpdateSurvives) {
  TxnId t0 = *db_.Begin();
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t0, 5, 42).ok());
  ASSERT_TRUE(db_.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Commit(t1).ok());
  // t0 is still active at the crash: a loser. Its delegated update must
  // survive anyway — it belongs to the committed delegatee.
  CrashAndRecover();
  EXPECT_EQ(*db_.ReadCommitted(5), 42);
}

TEST_F(RecoveryDelegationTest, DelegateeLoserAtCrashUpdateUndone) {
  TxnId t0 = *db_.Begin();
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t0, 5, 42).ok());
  ASSERT_TRUE(db_.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Commit(t0).ok());  // the *invoker* commits...
  CrashAndRecover();
  // ...but the responsible transaction (t1) never did: undo.
  EXPECT_EQ(*db_.ReadCommitted(5), 0);
}

TEST_F(RecoveryDelegationTest, PaperExample2AcrossCrash) {
  // update[t,ob], delegate(t,t1,ob), update[t,ob], delegate(t,t2,ob),
  // abort(t2), commit(t1), crash: first update persists, second is gone.
  TxnId t = *db_.Begin();
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Add(t, 5, 100).ok());
  ASSERT_TRUE(db_.Delegate(t, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Add(t, 5, 23).ok());
  ASSERT_TRUE(db_.Delegate(t, t2, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Abort(t2).ok());
  ASSERT_TRUE(db_.Commit(t1).ok());
  CrashAndRecover();
  EXPECT_EQ(*db_.ReadCommitted(5), 100);
}

TEST_F(RecoveryDelegationTest, Example2BothPendingAtCrash) {
  // Same history, but the crash happens before either delegatee resolves:
  // both updates belong to losers and both are undone.
  TxnId t = *db_.Begin();
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Add(t, 5, 100).ok());
  ASSERT_TRUE(db_.Delegate(t, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Add(t, 5, 23).ok());
  ASSERT_TRUE(db_.Delegate(t, t2, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Commit(t).ok());  // forces the whole history to disk
  CrashAndRecover();
  EXPECT_EQ(*db_.ReadCommitted(5), 0);
}

TEST_F(RecoveryDelegationTest, DelegationChainToWinner) {
  TxnId t0 = *db_.Begin();
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  TxnId t3 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t0, 5, 7).ok());
  ASSERT_TRUE(db_.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Delegate(t1, t2, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Delegate(t2, t3, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Abort(t0).ok());
  ASSERT_TRUE(db_.Abort(t1).ok());
  ASSERT_TRUE(db_.Commit(t3).ok());
  // t2 still active: loser, but no longer responsible.
  CrashAndRecover();
  EXPECT_EQ(*db_.ReadCommitted(5), 7);
}

TEST_F(RecoveryDelegationTest, DelegationChainToLoser) {
  TxnId t0 = *db_.Begin();
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t0, 5, 7).ok());
  ASSERT_TRUE(db_.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Delegate(t1, t2, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Commit(t0).ok());
  ASSERT_TRUE(db_.Commit(t1).ok());
  // t2, the final delegatee, never commits.
  CrashAndRecover();
  EXPECT_EQ(*db_.ReadCommitted(5), 0);
}

TEST_F(RecoveryDelegationTest, MixedObjectsSplitAcrossDelegatees) {
  TxnId t = *db_.Begin();
  TxnId keeper = *db_.Begin();
  TxnId dropper = *db_.Begin();
  ASSERT_TRUE(db_.Set(t, 1, 11).ok());
  ASSERT_TRUE(db_.Set(t, 2, 22).ok());
  ASSERT_TRUE(db_.Set(t, 3, 33).ok());
  ASSERT_TRUE(db_.Delegate(t, keeper, DelegationSpec::Objects({1})).ok());
  ASSERT_TRUE(db_.Delegate(t, dropper, DelegationSpec::Objects({2})).ok());
  ASSERT_TRUE(db_.Commit(keeper).ok());
  ASSERT_TRUE(db_.Abort(dropper).ok());
  ASSERT_TRUE(db_.Commit(t).ok());  // t keeps object 3
  CrashAndRecover();
  EXPECT_EQ(*db_.ReadCommitted(1), 11);
  EXPECT_EQ(*db_.ReadCommitted(2), 0);
  EXPECT_EQ(*db_.ReadCommitted(3), 33);
}

TEST_F(RecoveryDelegationTest, ConcurrentIncrementsOneDelegated) {
  TxnId a = *db_.Begin();
  TxnId b = *db_.Begin();
  TxnId heir = *db_.Begin();
  ASSERT_TRUE(db_.Add(a, 5, 10).ok());
  ASSERT_TRUE(db_.Add(b, 5, 200).ok());
  ASSERT_TRUE(db_.Add(a, 5, 1).ok());
  ASSERT_TRUE(db_.Delegate(a, heir, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Commit(heir).ok());
  ASSERT_TRUE(db_.Commit(b).ok());
  // a is a loser at the crash but everything it invoked was delegated.
  CrashAndRecover();
  EXPECT_EQ(*db_.ReadCommitted(5), 211);
}

TEST_F(RecoveryDelegationTest, ConcurrentIncrementsDelegateeLoses) {
  TxnId a = *db_.Begin();
  TxnId b = *db_.Begin();
  TxnId heir = *db_.Begin();
  ASSERT_TRUE(db_.Add(a, 5, 10).ok());
  ASSERT_TRUE(db_.Add(b, 5, 200).ok());
  ASSERT_TRUE(db_.Delegate(a, heir, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Commit(b).ok());
  ASSERT_TRUE(db_.Commit(a).ok());  // a committed but delegated its update
  CrashAndRecover();                // heir is a loser
  EXPECT_EQ(*db_.ReadCommitted(5), 200);
}

TEST_F(RecoveryDelegationTest, UpdateAfterDelegationSplitsFate) {
  TxnId t = *db_.Begin();
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Add(t, 5, 100).ok());
  ASSERT_TRUE(db_.Delegate(t, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Add(t, 5, 23).ok());  // new scope, still t's
  ASSERT_TRUE(db_.Commit(t).ok());      // the 23 survives with t
  CrashAndRecover();                    // t1 loses the 100
  EXPECT_EQ(*db_.ReadCommitted(5), 23);
}

TEST_F(RecoveryDelegationTest, CrashDuringDelegateeRollbackResumes) {
  TxnId t0 = *db_.Begin();
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t0, 5, 42).ok());
  ASSERT_TRUE(db_.Set(t0, 6, 43).ok());
  ASSERT_TRUE(db_.Delegate(t0, t1, DelegationSpec::Objects({5, 6})).ok());
  ASSERT_TRUE(db_.Commit(t0).ok());
  ASSERT_TRUE(db_.Abort(t1).ok());  // CLRs + END
  FlushLog();
  // Crash after a completed rollback, then again after recovery: values
  // must remain rolled back and not get double-undone.
  CrashAndRecover();
  EXPECT_EQ(*db_.ReadCommitted(5), 0);
  EXPECT_EQ(*db_.ReadCommitted(6), 0);
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 0);
  EXPECT_EQ(*db_.ReadCommitted(6), 0);
}

TEST_F(RecoveryDelegationTest, RepeatedRecoveryWithDelegationsIsStable) {
  TxnId t0 = *db_.Begin();
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Add(t0, 1, 10).ok());
  ASSERT_TRUE(db_.Add(t0, 2, 20).ok());
  ASSERT_TRUE(db_.Delegate(t0, t1, DelegationSpec::Objects({1})).ok());
  ASSERT_TRUE(db_.Delegate(t0, t2, DelegationSpec::Objects({2})).ok());
  ASSERT_TRUE(db_.Commit(t1).ok());
  ASSERT_TRUE(db_.Commit(t0).ok());
  FlushLog();
  for (int round = 0; round < 3; ++round) {
    db_.SimulateCrash();
    ASSERT_TRUE(RestartAndAwait(db_).ok()) << "round " << round;
    EXPECT_EQ(*db_.ReadCommitted(1), 10);
    EXPECT_EQ(*db_.ReadCommitted(2), 0);  // t2 never committed
  }
}

TEST_F(RecoveryDelegationTest, DelegationsAcrossManyObjectsAndTxns) {
  // A wider scenario: 20 invokers each update two objects and delegate one
  // of them to a collector that commits; the invokers stay active (losers).
  TxnId collector = *db_.Begin();
  for (int i = 0; i < 20; ++i) {
    TxnId t = *db_.Begin();
    ASSERT_TRUE(db_.Set(t, 100 + i, i + 1).ok());   // delegated, survives
    ASSERT_TRUE(db_.Set(t, 200 + i, i + 1).ok());   // kept, dies
    ASSERT_TRUE(db_.Delegate(t, collector, DelegationSpec::Objects({static_cast<ObjectId>(100 + i)}))
                    .ok());
  }
  ASSERT_TRUE(db_.Commit(collector).ok());
  CrashAndRecover();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(*db_.ReadCommitted(100 + i), i + 1) << "object " << 100 + i;
    EXPECT_EQ(*db_.ReadCommitted(200 + i), 0) << "object " << 200 + i;
  }
}

TEST_F(RecoveryDelegationTest, RhNeverRewritesStableLog) {
  TxnId t0 = *db_.Begin();
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t0, 5, 1).ok());
  ASSERT_TRUE(db_.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Commit(t0).ok());
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(db_.stats().log_rewrites, 0u);
}

}  // namespace
}  // namespace ariesrh
