// Operation-granularity delegation (paper Section 2.1): delegating a subset
// of a transaction's updates to one object, with scope splitting. Each case
// runs at one shard and at two, where the object lives on shard 1.

#include <gtest/gtest.h>

#include "core/database.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

class DelegateOperationsTest : public ::testing::TestWithParam<size_t> {
 protected:
  static Options WithShards(size_t shards) {
    Options options;
    options.num_shards = shards;
    return options;
  }

  /// The shard `ob_` lives on: the last one.
  EngineShard* Shard() { return db_.shard(db_.ShardOf(ob_)); }

  // Performs an Add and returns its LSN.
  Lsn Add(TxnId txn, ObjectId ob, int64_t delta) {
    EXPECT_TRUE(db_.Add(txn, ob, delta).ok());
    return db_.shard(db_.ShardOf(ob))->txn_manager()->Find(txn)->last_lsn;
  }

  Database db_{WithShards(GetParam())};
  /// The object every case delegates ranges of.
  const ObjectId ob_ = [this] {
    ObjectId ob = 5;
    while (db_.ShardOf(ob) != db_.num_shards() - 1) ++ob;
    return ob;
  }();
};

INSTANTIATE_TEST_SUITE_P(Shards, DelegateOperationsTest,
                         ::testing::Values(1u, 2u), [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

TEST_P(DelegateOperationsTest, SingleOperationDelegation) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  Add(t, ob_, 10);
  const Lsn mid = Add(t, ob_, 100);
  Add(t, ob_, 1000);

  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(ob_, mid, mid)).ok());
  // Both remain responsible for parts of the object's history.
  EXPECT_TRUE(Shard()->txn_manager()->Find(t)->IsResponsibleFor(ob_));
  EXPECT_TRUE(Shard()->txn_manager()->Find(heir)->IsResponsibleFor(ob_));

  ASSERT_TRUE(db_.Commit(heir).ok());  // the 100 survives
  ASSERT_TRUE(db_.Abort(t).ok());      // 10 and 1000 die
  EXPECT_EQ(*db_.ReadCommitted(ob_), 100);
}

TEST_P(DelegateOperationsTest, PrefixDelegation) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  const Lsn first = Add(t, ob_, 10);
  const Lsn second = Add(t, ob_, 100);
  Add(t, ob_, 1000);

  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(ob_, first, second)).ok());
  ASSERT_TRUE(db_.Abort(heir).ok());  // 10 + 100 undone
  ASSERT_TRUE(db_.Commit(t).ok());    // 1000 survives
  EXPECT_EQ(*db_.ReadCommitted(ob_), 1000);
}

TEST_P(DelegateOperationsTest, SuffixStaysOpenAndExtendable) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  const Lsn first = Add(t, ob_, 10);
  Add(t, ob_, 100);

  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(ob_, first, first)).ok());
  // The retained suffix is still t's open scope; a further update extends
  // responsibility seamlessly.
  Add(t, ob_, 1000);
  ASSERT_TRUE(db_.Commit(t).ok());   // 100 + 1000 survive
  ASSERT_TRUE(db_.Abort(heir).ok()); // 10 dies
  EXPECT_EQ(*db_.ReadCommitted(ob_), 1100);
}

TEST_P(DelegateOperationsTest, RangeSurvivesCrashRecovery) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  Add(t, ob_, 10);
  const Lsn mid = Add(t, ob_, 100);
  Add(t, ob_, 1000);
  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(ob_, mid, mid)).ok());
  ASSERT_TRUE(db_.Commit(heir).ok());
  // t is a loser at the crash: 10 and 1000 must be undone, 100 kept —
  // the forward pass must rebuild the split scopes from the ranged record.
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(ob_), 100);
}

TEST_P(DelegateOperationsTest, RangeSplitAcrossCheckpoint) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  Add(t, ob_, 10);
  const Lsn mid = Add(t, ob_, 100);
  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(ob_, mid, mid)).ok());
  ASSERT_TRUE(db_.Checkpoint().ok());  // split scopes snapshot
  ASSERT_TRUE(db_.Commit(heir).ok());
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(ob_), 100);
}

TEST_P(DelegateOperationsTest, LockStaysWithDelegatorWhileItHoldsScopes) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  const Lsn first = Add(t, ob_, 10);
  Add(t, ob_, 100);
  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(ob_, first, first)).ok());
  // t still holds responsibility (and its increment lock).
  EXPECT_TRUE(Shard()->lock_manager()->Holds(t, ob_, LockMode::kIncrement));
}

TEST_P(DelegateOperationsTest, LockTransfersWhenEverythingMoves) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  const Lsn first = Add(t, ob_, 10);
  const Lsn second = Add(t, ob_, 100);
  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(ob_, first, second)).ok());
  EXPECT_FALSE(Shard()->txn_manager()->Find(t)->IsResponsibleFor(ob_));
  EXPECT_TRUE(
      Shard()->lock_manager()->Holds(heir, ob_, LockMode::kIncrement));
  ASSERT_TRUE(db_.Commit(heir).ok());
  ASSERT_TRUE(db_.Commit(t).ok());
}

TEST_P(DelegateOperationsTest, NonIntersectingRangeRejected) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  const Lsn only = Add(t, ob_, 10);
  EXPECT_TRUE(
      db_.Delegate(t, heir, DelegationSpec::Operations(ob_, only + 10, only + 20))
          .IsInvalidArgument());
  EXPECT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(ob_ + 1, only, only))
                  .IsInvalidArgument());  // wrong object
}

TEST_P(DelegateOperationsTest, MalformedRangeRejected) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  const Lsn l = Add(t, ob_, 10);
  EXPECT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(ob_, l, l - 1)).IsInvalidArgument());
  EXPECT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(ob_, kInvalidLsn, l))
                  .IsInvalidArgument());
  EXPECT_TRUE(db_.Delegate(t, t, DelegationSpec::Operations(ob_, l, l)).IsInvalidArgument());
}

TEST(DelegateOperationsModesTest, BaselinesDoNotSupportRanges) {
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

TEST_P(DelegateOperationsTest, ChainedRangeDelegations) {
  // Split one transaction's three increments across three heirs; each heir
  // decides independently.
  TxnId t = *db_.Begin();
  const Lsn a = Add(t, ob_, 1);
  const Lsn b = Add(t, ob_, 10);
  const Lsn c = Add(t, ob_, 100);
  TxnId h1 = *db_.Begin();
  TxnId h2 = *db_.Begin();
  TxnId h3 = *db_.Begin();
  ASSERT_TRUE(db_.Delegate(t, h1, DelegationSpec::Operations(ob_, a, a)).ok());
  ASSERT_TRUE(db_.Delegate(t, h2, DelegationSpec::Operations(ob_, b, b)).ok());
  ASSERT_TRUE(db_.Delegate(t, h3, DelegationSpec::Operations(ob_, c, c)).ok());
  EXPECT_FALSE(Shard()->txn_manager()->Find(t)->IsResponsibleFor(ob_));
  ASSERT_TRUE(db_.Commit(h1).ok());
  ASSERT_TRUE(db_.Abort(h2).ok());
  ASSERT_TRUE(db_.Commit(h3).ok());
  ASSERT_TRUE(db_.Commit(t).ok());
  EXPECT_EQ(*db_.ReadCommitted(ob_), 101);
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(ob_), 101);
}

TEST_P(DelegateOperationsTest, ScopeSplitBookkeeping) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  const Lsn a = Add(t, ob_, 1);
  Add(t, ob_, 10);
  const Lsn c = Add(t, ob_, 100);
  // Delegate the middle only.
  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(ob_, a + 1, c - 1)).ok());
  const auto& kept = Shard()->txn_manager()->Find(t)->ob_list.at(ob_).scopes;
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], (Scope{t, a, a, false}));       // closed prefix
  EXPECT_EQ(kept[1], (Scope{t, c, c, true}));        // open suffix
  const auto& got =
      Shard()->txn_manager()->Find(heir)->ob_list.at(ob_).scopes;
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (Scope{t, a + 1, c - 1, false}));
}

TEST_P(DelegateOperationsTest, SplittingSetCoverageRejected) {
  // Splitting non-commuting (Set) coverage across two responsibility
  // domains would make before-image undo trample the other party's work;
  // the engine refuses (whole-object delegation is the sound alternative).
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  ASSERT_TRUE(db_.Set(t, ob_, 10).ok());
  const Lsn l2 = [&] {
    EXPECT_TRUE(db_.Set(t, ob_, 20).ok());
    return Shard()->txn_manager()->Find(t)->last_lsn;
  }();
  EXPECT_TRUE(
      db_.Delegate(t, heir, DelegationSpec::Operations(ob_, l2, l2)).IsInvalidArgument());
  ASSERT_TRUE(db_.Commit(t).ok());
  ASSERT_TRUE(db_.Commit(heir).ok());
  EXPECT_EQ(*db_.ReadCommitted(ob_), 20);
}

TEST_P(DelegateOperationsTest, FullTransferOfSetCoverageAllowed) {
  TxnId t = *db_.Begin();
  TxnId heir = *db_.Begin();
  const Lsn l1 = [&] {
    EXPECT_TRUE(db_.Set(t, ob_, 10).ok());
    return Shard()->txn_manager()->Find(t)->last_lsn;
  }();
  const Lsn l2 = [&] {
    EXPECT_TRUE(db_.Set(t, ob_, 20).ok());
    return Shard()->txn_manager()->Find(t)->last_lsn;
  }();
  // The range covers everything: equivalent to whole-object delegation.
  ASSERT_TRUE(db_.Delegate(t, heir, DelegationSpec::Operations(ob_, l1, l2)).ok());
  ASSERT_TRUE(db_.Abort(heir).ok());
  ASSERT_TRUE(db_.Commit(t).ok());
  EXPECT_EQ(*db_.ReadCommitted(ob_), 0);
}

TEST_P(DelegateOperationsTest, SetFlagTravelsWithDelegatedCoverage) {
  // The non-commuting flag follows the coverage: after receiving a Set via
  // whole-object delegation and adding its own increment, the delegatee
  // cannot split the mixed coverage either.
  TxnId t = *db_.Begin();
  TxnId mid = *db_.Begin();
  TxnId heir = *db_.Begin();
  ASSERT_TRUE(db_.Set(t, ob_, 10).ok());
  ASSERT_TRUE(db_.Delegate(t, mid, DelegationSpec::Objects({ob_})).ok());  // whole object: fine
  ASSERT_TRUE(db_.Add(mid, ob_, 3).ok());         // mid holds X >= I
  const Lsn add_lsn = Shard()->txn_manager()->Find(mid)->last_lsn;
  EXPECT_TRUE(db_.Delegate(mid, heir, DelegationSpec::Operations(ob_, add_lsn, add_lsn))
                  .IsInvalidArgument());
  // Delegating everything mid holds remains legal.
  ASSERT_TRUE(db_.Delegate(mid, heir, DelegationSpec::All()).ok());
  ASSERT_TRUE(db_.Commit(heir).ok());
  ASSERT_TRUE(db_.Commit(t).ok());
  ASSERT_TRUE(db_.Commit(mid).ok());
  EXPECT_EQ(*db_.ReadCommitted(ob_), 13);
}

}  // namespace
}  // namespace ariesrh
