// Savepoints and partial rollback (ARIES partial rollbacks, extended with
// delegation-aware semantics).

#include <gtest/gtest.h>

#include <utility>

#include "core/database.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

class SavepointTest : public ::testing::Test {
 protected:
  Database db_;
};

TEST_F(SavepointTest, RollbackToUndoesSuffixOnly) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Set(t, 1, 10).ok());
  Lsn sp = *db_.Savepoint(t);
  ASSERT_TRUE(db_.Set(t, 1, 20).ok());
  ASSERT_TRUE(db_.Set(t, 2, 30).ok());
  ASSERT_TRUE(db_.RollbackTo(t, sp).ok());
  EXPECT_EQ(*db_.Read(t, 1), 10);
  EXPECT_EQ(*db_.Read(t, 2), 0);
  ASSERT_TRUE(db_.Commit(t).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 10);
  EXPECT_EQ(*db_.ReadCommitted(2), 0);
}

TEST_F(SavepointTest, TransactionContinuesAfterRollbackTo) {
  TxnId t = *db_.Begin();
  Lsn sp = *db_.Savepoint(t);
  ASSERT_TRUE(db_.Add(t, 1, 100).ok());
  ASSERT_TRUE(db_.RollbackTo(t, sp).ok());
  ASSERT_TRUE(db_.Add(t, 1, 7).ok());
  ASSERT_TRUE(db_.Commit(t).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 7);
}

TEST_F(SavepointTest, NestedSavepoints) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Add(t, 1, 1).ok());
  Lsn sp1 = *db_.Savepoint(t);
  ASSERT_TRUE(db_.Add(t, 1, 10).ok());
  Lsn sp2 = *db_.Savepoint(t);
  ASSERT_TRUE(db_.Add(t, 1, 100).ok());
  ASSERT_TRUE(db_.RollbackTo(t, sp2).ok());
  EXPECT_EQ(*db_.Read(t, 1), 11);
  ASSERT_TRUE(db_.RollbackTo(t, sp1).ok());
  EXPECT_EQ(*db_.Read(t, 1), 1);
  ASSERT_TRUE(db_.Commit(t).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 1);
}

TEST_F(SavepointTest, RollbackToSamePointIsNoOp) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Add(t, 1, 5).ok());
  Lsn sp = *db_.Savepoint(t);
  ASSERT_TRUE(db_.RollbackTo(t, sp).ok());
  EXPECT_EQ(*db_.Read(t, 1), 5);
  ASSERT_TRUE(db_.Commit(t).ok());
}

TEST_F(SavepointTest, InvalidSavepointRejected) {
  TxnId t0 = *db_.Begin();
  ASSERT_TRUE(db_.Add(t0, 1, 1).ok());
  TxnId t = *db_.Begin();
  EXPECT_TRUE(db_.RollbackTo(t, kInvalidLsn).IsInvalidArgument());
  // A savepoint from before this transaction began is rejected.
  EXPECT_TRUE(db_.RollbackTo(t, 1).IsInvalidArgument());
  ASSERT_TRUE(db_.Commit(t0).ok());
  ASSERT_TRUE(db_.Commit(t).ok());
}

TEST_F(SavepointTest, AbortAfterPartialRollbackDoesNotDoubleUndo) {
  TxnId t0 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t0, 1, 50).ok());
  ASSERT_TRUE(db_.Commit(t0).ok());

  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Add(t, 1, 5).ok());
  Lsn sp = *db_.Savepoint(t);
  ASSERT_TRUE(db_.Add(t, 1, 100).ok());
  ASSERT_TRUE(db_.RollbackTo(t, sp).ok());
  EXPECT_EQ(*db_.Read(t, 1), 55);
  ASSERT_TRUE(db_.Abort(t).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 50);  // exactly back to committed state
}

TEST_F(SavepointTest, CrashAfterPartialRollbackRecovers) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Add(t, 1, 5).ok());
  Lsn sp = *db_.Savepoint(t);
  ASSERT_TRUE(db_.Add(t, 1, 100).ok());
  ASSERT_TRUE(db_.Add(t, 2, 9).ok());
  ASSERT_TRUE(db_.RollbackTo(t, sp).ok());
  ASSERT_TRUE(db_.shard(0)->log_manager()->FlushAll().ok());
  db_.SimulateCrash();  // t is a loser; its pre-savepoint work dies too
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
  EXPECT_EQ(*db_.ReadCommitted(2), 0);
}

TEST_F(SavepointTest, CommitAfterPartialRollbackKeepsPrefixAcrossCrash) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Add(t, 1, 5).ok());
  Lsn sp = *db_.Savepoint(t);
  ASSERT_TRUE(db_.Add(t, 1, 100).ok());
  ASSERT_TRUE(db_.RollbackTo(t, sp).ok());
  ASSERT_TRUE(db_.Commit(t).ok());
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 5);
}

TEST_F(SavepointTest, RollbackToUndoesDelegatedInUpdates) {
  // History was rewritten: delegated-in updates count as this transaction's
  // history, so a partial rollback past their arrival undoes them.
  TxnId t0 = *db_.Begin();
  TxnId t = *db_.Begin();
  Lsn sp = *db_.Savepoint(t);
  ASSERT_TRUE(db_.Add(t0, 1, 42).ok());
  ASSERT_TRUE(db_.Delegate(t0, t, DelegationSpec::Objects({1})).ok());
  ASSERT_TRUE(db_.RollbackTo(t, sp).ok());
  EXPECT_FALSE(db_.shard(0)->txn_manager()->Find(t)->IsResponsibleFor(1));
  ASSERT_TRUE(db_.Commit(t).ok());
  ASSERT_TRUE(db_.Commit(t0).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
}

TEST_F(SavepointTest, DelegatedAwayUpdatesSurvivePartialRollback) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  Lsn sp = *db_.Savepoint(t);
  ASSERT_TRUE(db_.Add(t, 1, 42).ok());
  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Objects({1})).ok());
  ASSERT_TRUE(db_.RollbackTo(t, sp).ok());  // t owns nothing on ob1 now
  ASSERT_TRUE(db_.Commit(heir).ok());
  ASSERT_TRUE(db_.Abort(t).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 42);
}

TEST_F(SavepointTest, DelegationAfterPartialRollbackWorksUnderRH) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  ASSERT_TRUE(db_.Add(t, 1, 5).ok());
  Lsn sp = *db_.Savepoint(t);
  ASSERT_TRUE(db_.Add(t, 1, 100).ok());
  ASSERT_TRUE(db_.RollbackTo(t, sp).ok());
  // RH can delegate the surviving (clipped) scope; the compensated update
  // stays dead.
  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Objects({1})).ok());
  ASSERT_TRUE(db_.Commit(heir).ok());
  ASSERT_TRUE(db_.Abort(t).ok());
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 5);
}

TEST_F(SavepointTest, RewritingBaselinesRefuseDelegationAfterRollback) {
  for (DelegationMode mode :
       {DelegationMode::kEager, DelegationMode::kLazyRewrite}) {
    Options options;
    options.delegation_mode = mode;
    Database db(options);
    TxnId t = *db.Begin();
    TxnId heir = *db.Begin();
    ASSERT_TRUE(db.Add(t, 1, 5).ok());
    Lsn sp = *db.Savepoint(t);
    ASSERT_TRUE(db.Add(t, 1, 100).ok());
    ASSERT_TRUE(db.RollbackTo(t, sp).ok());
    EXPECT_TRUE(db.Delegate(t, heir, DelegationSpec::Objects({1})).IsIllegalState())
        << DelegationModeName(mode);
  }
}

TEST_F(SavepointTest, LazyRewriteRefusesRollbackAfterDelegation) {
  Options options;
  options.delegation_mode = DelegationMode::kLazyRewrite;
  Database db(options);
  TxnId t = *db.Begin();
  TxnId heir = *db.Begin();
  ASSERT_TRUE(db.Add(t, 1, 5).ok());
  Lsn sp = *db.Savepoint(t);
  ASSERT_TRUE(db.Delegate(t, heir, DelegationSpec::Objects({1})).ok());
  ASSERT_TRUE(db.Add(t, 2, 9).ok());
  EXPECT_TRUE(db.RollbackTo(t, sp).code() == StatusCode::kNotSupported);
}

TEST_F(SavepointTest, ConventionalModePartialRollback) {
  Options options;
  options.delegation_mode = DelegationMode::kDisabled;
  Database db(options);
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 10).ok());
  Lsn sp = *db.Savepoint(t);
  ASSERT_TRUE(db.Set(t, 1, 20).ok());
  ASSERT_TRUE(db.RollbackTo(t, sp).ok());
  EXPECT_EQ(*db.Read(t, 1), 10);
  ASSERT_TRUE(db.Commit(t).ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 10);
}

TEST_F(SavepointTest, RepeatedRollbackToSameSavepointIsIdempotent) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Add(t, 1, 5).ok());
  Lsn sp = *db_.Savepoint(t);
  ASSERT_TRUE(db_.Add(t, 1, 100).ok());
  ASSERT_TRUE(db_.RollbackTo(t, sp).ok());
  ASSERT_TRUE(db_.RollbackTo(t, sp).ok());
  ASSERT_TRUE(db_.RollbackTo(t, sp).ok());
  EXPECT_EQ(*db_.Read(t, 1), 5);
  ASSERT_TRUE(db_.Commit(t).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 5);
}

TEST_F(SavepointTest, RollbackAcrossDelegationMatchesUnderRHAndEager) {
  // One history, two ways of keeping it: kRH writes a DELEGATE record and
  // undoes by scope, kEager splices the delegated record into the
  // delegatee's chain and undoes along it, down to the savepoint.
  for (DelegationMode mode : {DelegationMode::kRH, DelegationMode::kEager}) {
    Options options;
    options.delegation_mode = mode;
    Database db(options);
    TxnId tor = *db.Begin();
    TxnId tee = *db.Begin();
    ASSERT_TRUE(db.Add(tee, 7, 1).ok());  // before the savepoint: kept
    const Lsn sp = *db.Savepoint(tee);
    ASSERT_TRUE(db.Add(tor, 5, 1).ok());  // after it, then delegated to tee
    ASSERT_TRUE(db.Add(tor, 6, 1).ok());  // after it, stays tor's
    ASSERT_TRUE(db.Delegate(tor, tee, DelegationSpec::Objects({5})).ok())
        << DelegationModeName(mode);
    ASSERT_TRUE(db.Add(tee, 8, 1).ok());
    ASSERT_TRUE(db.RollbackTo(tee, sp).ok()) << DelegationModeName(mode);
    ASSERT_TRUE(db.Commit(tee).ok());
    ASSERT_TRUE(db.Abort(tor).ok());
    for (const auto& [ob, value] :
         {std::pair<ObjectId, int64_t>{5, 0}, {6, 0}, {7, 1}, {8, 0}}) {
      EXPECT_EQ(*db.ReadCommitted(ob), value)
          << DelegationModeName(mode) << " object " << ob;
    }
  }
}

}  // namespace
}  // namespace ariesrh
