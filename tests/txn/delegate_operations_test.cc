// Operation-granularity delegation (paper Section 2.1): delegating a subset
// of a transaction's updates to one object, with scope splitting.

#include <gtest/gtest.h>

#include "core/database.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

class DelegateOperationsTest : public ::testing::Test {
 protected:
  Database db_;

  // Performs an Add and returns its LSN.
  Lsn Add(TxnId txn, ObjectId ob, int64_t delta) {
    EXPECT_TRUE(db_.Add(txn, ob, delta).ok());
    return db_.shard(0)->txn_manager()->Find(txn)->last_lsn;
  }
};

TEST_F(DelegateOperationsTest, SingleOperationDelegation) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  Add(t, 5, 10);
  const Lsn mid = Add(t, 5, 100);
  Add(t, 5, 1000);

  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(5, mid, mid)).ok());
  // Both remain responsible for parts of the object's history.
  EXPECT_TRUE(db_.shard(0)->txn_manager()->Find(t)->IsResponsibleFor(5));
  EXPECT_TRUE(db_.shard(0)->txn_manager()->Find(heir)->IsResponsibleFor(5));

  ASSERT_TRUE(db_.Commit(heir).ok());  // the 100 survives
  ASSERT_TRUE(db_.Abort(t).ok());      // 10 and 1000 die
  EXPECT_EQ(*db_.ReadCommitted(5), 100);
}

TEST_F(DelegateOperationsTest, PrefixDelegation) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  const Lsn first = Add(t, 5, 10);
  const Lsn second = Add(t, 5, 100);
  Add(t, 5, 1000);

  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(5, first, second)).ok());
  ASSERT_TRUE(db_.Abort(heir).ok());  // 10 + 100 undone
  ASSERT_TRUE(db_.Commit(t).ok());    // 1000 survives
  EXPECT_EQ(*db_.ReadCommitted(5), 1000);
}

TEST_F(DelegateOperationsTest, SuffixStaysOpenAndExtendable) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  const Lsn first = Add(t, 5, 10);
  Add(t, 5, 100);

  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(5, first, first)).ok());
  // The retained suffix is still t's open scope; a further update extends
  // responsibility seamlessly.
  Add(t, 5, 1000);
  ASSERT_TRUE(db_.Commit(t).ok());   // 100 + 1000 survive
  ASSERT_TRUE(db_.Abort(heir).ok()); // 10 dies
  EXPECT_EQ(*db_.ReadCommitted(5), 1100);
}

TEST_F(DelegateOperationsTest, RangeSurvivesCrashRecovery) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  Add(t, 5, 10);
  const Lsn mid = Add(t, 5, 100);
  Add(t, 5, 1000);
  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(5, mid, mid)).ok());
  ASSERT_TRUE(db_.Commit(heir).ok());
  // t is a loser at the crash: 10 and 1000 must be undone, 100 kept —
  // the forward pass must rebuild the split scopes from the ranged record.
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 100);
}

TEST_F(DelegateOperationsTest, RangeSplitAcrossCheckpoint) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  Add(t, 5, 10);
  const Lsn mid = Add(t, 5, 100);
  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(5, mid, mid)).ok());
  ASSERT_TRUE(db_.Checkpoint().ok());  // split scopes snapshot
  ASSERT_TRUE(db_.Commit(heir).ok());
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 100);
}

TEST_F(DelegateOperationsTest, LockStaysWithDelegatorWhileItHoldsScopes) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  const Lsn first = Add(t, 5, 10);
  Add(t, 5, 100);
  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(5, first, first)).ok());
  // t still holds responsibility (and its increment lock).
  EXPECT_TRUE(db_.shard(0)->lock_manager()->Holds(t, 5, LockMode::kIncrement));
}

TEST_F(DelegateOperationsTest, LockTransfersWhenEverythingMoves) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  const Lsn first = Add(t, 5, 10);
  const Lsn second = Add(t, 5, 100);
  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(5, first, second)).ok());
  EXPECT_FALSE(db_.shard(0)->txn_manager()->Find(t)->IsResponsibleFor(5));
  EXPECT_TRUE(
      db_.shard(0)->lock_manager()->Holds(heir, 5, LockMode::kIncrement));
  ASSERT_TRUE(db_.Commit(heir).ok());
  ASSERT_TRUE(db_.Commit(t).ok());
}

TEST_F(DelegateOperationsTest, NonIntersectingRangeRejected) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  const Lsn only = Add(t, 5, 10);
  EXPECT_TRUE(
      db_.Delegate(t, heir, DelegationSpec::Operations(5, only + 10, only + 20))
          .IsInvalidArgument());
  EXPECT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(6, only, only))
                  .IsInvalidArgument());  // wrong object
}

TEST_F(DelegateOperationsTest, MalformedRangeRejected) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  const Lsn l = Add(t, 5, 10);
  EXPECT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(5, l, l - 1)).IsInvalidArgument());
  EXPECT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(5, kInvalidLsn, l))
                  .IsInvalidArgument());
  EXPECT_TRUE(db_.Delegate(t, t, DelegationSpec::Operations(5, l, l)).IsInvalidArgument());
}

TEST_F(DelegateOperationsTest, BaselinesDoNotSupportRanges) {
  for (DelegationMode mode :
       {DelegationMode::kDisabled, DelegationMode::kEager,
        DelegationMode::kLazyRewrite}) {
    Options options;
    options.delegation_mode = mode;
    Database db(options);
    TxnId t = *db.Begin();
    TxnId heir = *db.Begin();
    ASSERT_TRUE(db.Add(t, 5, 1).ok());
    const Lsn l = db.shard(0)->txn_manager()->Find(t)->last_lsn;
    EXPECT_EQ(db.Delegate(t, heir, DelegationSpec::Operations(5, l, l)).code(),
              StatusCode::kNotSupported)
        << DelegationModeName(mode);
  }
}

TEST_F(DelegateOperationsTest, ChainedRangeDelegations) {
  // Split one transaction's three increments across three heirs; each heir
  // decides independently.
  TxnId t = *db_.Begin();
  const Lsn a = Add(t, 5, 1);
  const Lsn b = Add(t, 5, 10);
  const Lsn c = Add(t, 5, 100);
  TxnId h1 = *db_.Begin();
  TxnId h2 = *db_.Begin();
  TxnId h3 = *db_.Begin();
  ASSERT_TRUE(db_.Delegate(t, h1, DelegationSpec::Operations(5, a, a)).ok());
  ASSERT_TRUE(db_.Delegate(t, h2, DelegationSpec::Operations(5, b, b)).ok());
  ASSERT_TRUE(db_.Delegate(t, h3, DelegationSpec::Operations(5, c, c)).ok());
  EXPECT_FALSE(db_.shard(0)->txn_manager()->Find(t)->IsResponsibleFor(5));
  ASSERT_TRUE(db_.Commit(h1).ok());
  ASSERT_TRUE(db_.Abort(h2).ok());
  ASSERT_TRUE(db_.Commit(h3).ok());
  ASSERT_TRUE(db_.Commit(t).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 101);
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 101);
}

TEST_F(DelegateOperationsTest, ScopeSplitBookkeeping) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  const Lsn a = Add(t, 5, 1);
  Add(t, 5, 10);
  const Lsn c = Add(t, 5, 100);
  // Delegate the middle only.
  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(5, a + 1, c - 1)).ok());
  const auto& kept = db_.shard(0)->txn_manager()->Find(t)->ob_list.at(5).scopes;
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], (Scope{t, a, a, false}));       // closed prefix
  EXPECT_EQ(kept[1], (Scope{t, c, c, true}));        // open suffix
  const auto& got =
      db_.shard(0)->txn_manager()->Find(heir)->ob_list.at(5).scopes;
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (Scope{t, a + 1, c - 1, false}));
}

TEST_F(DelegateOperationsTest, SplittingSetCoverageRejected) {
  // Splitting non-commuting (Set) coverage across two responsibility
  // domains would make before-image undo trample the other party's work;
  // the engine refuses (whole-object delegation is the sound alternative).
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  ASSERT_TRUE(db_.Set(t, 5, 10).ok());
  const Lsn l2 = [&] {
    EXPECT_TRUE(db_.Set(t, 5, 20).ok());
    return db_.shard(0)->txn_manager()->Find(t)->last_lsn;
  }();
  EXPECT_TRUE(
      db_.Delegate(t, heir, DelegationSpec::Operations(5, l2, l2)).IsInvalidArgument());
  ASSERT_TRUE(db_.Commit(t).ok());
  ASSERT_TRUE(db_.Commit(heir).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 20);
}

TEST_F(DelegateOperationsTest, FullTransferOfSetCoverageAllowed) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  const Lsn l1 = [&] {
    EXPECT_TRUE(db_.Set(t, 5, 10).ok());
    return db_.shard(0)->txn_manager()->Find(t)->last_lsn;
  }();
  const Lsn l2 = [&] {
    EXPECT_TRUE(db_.Set(t, 5, 20).ok());
    return db_.shard(0)->txn_manager()->Find(t)->last_lsn;
  }();
  // The range covers everything: equivalent to whole-object delegation.
  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(5, l1, l2)).ok());
  ASSERT_TRUE(db_.Abort(heir).ok());
  ASSERT_TRUE(db_.Commit(t).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 0);
}

TEST_F(DelegateOperationsTest, SetFlagTravelsWithDelegatedCoverage) {
  // The non-commuting flag follows the coverage: after receiving a Set via
  // whole-object delegation and adding its own increment, the delegatee
  // cannot split the mixed coverage either.
  TxnId t = *db_.Begin();
  TxnId mid = *db_.Begin();
  TxnId heir = *db_.Begin();
  ASSERT_TRUE(db_.Set(t, 5, 10).ok());
  ASSERT_TRUE(db_.Delegate(t, mid, DelegationSpec::Objects({5})).ok());  // whole object: fine
  ASSERT_TRUE(db_.Add(mid, 5, 3).ok());         // mid holds X >= I
  const Lsn add_lsn = db_.shard(0)->txn_manager()->Find(mid)->last_lsn;
  EXPECT_TRUE(db_.Delegate(mid, heir, DelegationSpec::Operations(5, add_lsn, add_lsn))
                  .IsInvalidArgument());
  // Delegating everything mid holds remains legal.
  ASSERT_TRUE(db_.Delegate(mid, heir, DelegationSpec::All()).ok());
  ASSERT_TRUE(db_.Commit(heir).ok());
  ASSERT_TRUE(db_.Commit(t).ok());
  ASSERT_TRUE(db_.Commit(mid).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 13);
}

}  // namespace
}  // namespace ariesrh
