// Nested transactions synthesized from delegation (paper Section 2.2.2).

#include "etm/nested.h"

#include <gtest/gtest.h>

#include "restart_util.h"

namespace ariesrh::etm {
namespace {

class NestedTest : public ::testing::Test {
 protected:
  Database db_;
  NestedTransactions nested_{&db_};
};

TEST_F(NestedTest, ChildCommitDelegatesUpward) {
  TxnId root = *nested_.BeginRoot();
  TxnId child = *nested_.BeginChild(root);
  ASSERT_TRUE(db_.Set(child, 1, 10).ok());
  ASSERT_TRUE(nested_.Commit(child).ok());
  // The child committed but the effects are not durable yet: the root is
  // now responsible.
  EXPECT_TRUE(db_.shard(0)->txn_manager()->Find(root)->IsResponsibleFor(1));
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 0);  // root was a loser
}

TEST_F(NestedTest, RootCommitMakesEverythingDurable) {
  TxnId root = *nested_.BeginRoot();
  TxnId child = *nested_.BeginChild(root);
  ASSERT_TRUE(db_.Set(child, 1, 10).ok());
  ASSERT_TRUE(nested_.Commit(child).ok());
  ASSERT_TRUE(db_.Set(root, 2, 20).ok());
  ASSERT_TRUE(nested_.Commit(root).ok());
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 10);
  EXPECT_EQ(*db_.ReadCommitted(2), 20);
}

TEST_F(NestedTest, ChildAbortDoesNotAbortParent) {
  TxnId root = *nested_.BeginRoot();
  ASSERT_TRUE(db_.Set(root, 2, 20).ok());
  TxnId child = *nested_.BeginChild(root);
  ASSERT_TRUE(db_.Set(child, 1, 10).ok());
  ASSERT_TRUE(nested_.Abort(child).ok());
  EXPECT_EQ(db_.shard(0)->txn_manager()->Find(root)->state, TxnState::kActive);
  ASSERT_TRUE(nested_.Commit(root).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
  EXPECT_EQ(*db_.ReadCommitted(2), 20);
}

TEST_F(NestedTest, ParentAbortCascadesToLiveChildren) {
  TxnId root = *nested_.BeginRoot();
  TxnId child = *nested_.BeginChild(root);
  ASSERT_TRUE(db_.Set(child, 1, 10).ok());
  ASSERT_TRUE(nested_.Abort(root).ok());
  EXPECT_EQ(db_.shard(0)->txn_manager()->Find(child)->state,
            TxnState::kAborted);
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
}

TEST_F(NestedTest, ParentAbortUndoesCommittedChildWork) {
  // The child committed (inheriting its work upward); then the parent
  // aborts: the inherited work must be rolled back.
  TxnId root = *nested_.BeginRoot();
  TxnId child = *nested_.BeginChild(root);
  ASSERT_TRUE(db_.Set(child, 1, 10).ok());
  ASSERT_TRUE(nested_.Commit(child).ok());
  ASSERT_TRUE(nested_.Abort(root).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
}

TEST_F(NestedTest, ThreeLevelNesting) {
  TxnId root = *nested_.BeginRoot();
  TxnId mid = *nested_.BeginChild(root);
  TxnId leaf = *nested_.BeginChild(mid);
  ASSERT_TRUE(db_.Set(leaf, 1, 10).ok());
  ASSERT_TRUE(nested_.Commit(leaf).ok());
  EXPECT_TRUE(db_.shard(0)->txn_manager()->Find(mid)->IsResponsibleFor(1));
  ASSERT_TRUE(nested_.Commit(mid).ok());
  EXPECT_TRUE(db_.shard(0)->txn_manager()->Find(root)->IsResponsibleFor(1));
  ASSERT_TRUE(nested_.Commit(root).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 10);
}

TEST_F(NestedTest, SiblingFailureIsolated) {
  TxnId root = *nested_.BeginRoot();
  TxnId good = *nested_.BeginChild(root);
  TxnId bad = *nested_.BeginChild(root);
  ASSERT_TRUE(db_.Set(good, 1, 10).ok());
  ASSERT_TRUE(db_.Set(bad, 2, 20).ok());
  ASSERT_TRUE(nested_.Commit(good).ok());
  ASSERT_TRUE(nested_.Abort(bad).ok());
  ASSERT_TRUE(nested_.Commit(root).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 10);
  EXPECT_EQ(*db_.ReadCommitted(2), 0);
}

TEST_F(NestedTest, ChildSeesParentsObjectsViaPermit) {
  TxnId root = *nested_.BeginRoot();
  ASSERT_TRUE(db_.Set(root, 1, 10).ok());
  TxnId child = *nested_.BeginChild(root);  // permits granted at begin
  EXPECT_EQ(*db_.Read(child, 1), 10);
  ASSERT_TRUE(nested_.Commit(child).ok());
  ASSERT_TRUE(nested_.Commit(root).ok());
}

TEST_F(NestedTest, LatePermitFromAncestors) {
  TxnId root = *nested_.BeginRoot();
  TxnId child = *nested_.BeginChild(root);
  ASSERT_TRUE(db_.Set(root, 1, 10).ok());  // acquired after child began
  EXPECT_TRUE(db_.Read(child, 1).status().IsBusy());
  ASSERT_TRUE(nested_.PermitFromAncestors(child, 1).ok());
  EXPECT_EQ(*db_.Read(child, 1), 10);
  ASSERT_TRUE(nested_.Commit(child).ok());
  ASSERT_TRUE(nested_.Commit(root).ok());
}

TEST_F(NestedTest, ParentOfBookkeeping) {
  TxnId root = *nested_.BeginRoot();
  TxnId child = *nested_.BeginChild(root);
  EXPECT_EQ(nested_.ParentOf(root), kInvalidTxn);
  EXPECT_EQ(nested_.ParentOf(child), root);
  ASSERT_TRUE(nested_.Commit(child).ok());
  EXPECT_EQ(nested_.ParentOf(child), kInvalidTxn);
  ASSERT_TRUE(nested_.Commit(root).ok());
}

TEST_F(NestedTest, TripExampleFromPaper) {
  // Section 2.2.2: airline reservation succeeds, hotel reservation fails,
  // so the whole trip is canceled and the airline reservation does not
  // become permanent.
  constexpr ObjectId kAirlineSeat = 100;
  constexpr ObjectId kHotelRoom = 200;

  TxnId trip = *nested_.BeginRoot();

  TxnId airline = *nested_.BeginChild(trip);
  ASSERT_TRUE(db_.Set(airline, kAirlineSeat, 1).ok());  // reserve a seat
  ASSERT_TRUE(nested_.Commit(airline).ok());            // delegate to trip

  TxnId hotel = *nested_.BeginChild(trip);
  // Hotel reservation "fails": the subtransaction aborts...
  ASSERT_TRUE(nested_.Abort(hotel).ok());
  // ...and per the paper's code, the failed wait aborts the root.
  ASSERT_TRUE(nested_.Abort(trip).ok());

  EXPECT_EQ(*db_.ReadCommitted(kAirlineSeat), 0);
  EXPECT_EQ(*db_.ReadCommitted(kHotelRoom), 0);
}

TEST_F(NestedTest, NestedWorkSurvivesCrashOnlyAfterRootCommit) {
  TxnId root1 = *nested_.BeginRoot();
  TxnId child1 = *nested_.BeginChild(root1);
  ASSERT_TRUE(db_.Set(child1, 1, 10).ok());
  ASSERT_TRUE(nested_.Commit(child1).ok());
  ASSERT_TRUE(nested_.Commit(root1).ok());

  TxnId root2 = *nested_.BeginRoot();
  TxnId child2 = *nested_.BeginChild(root2);
  ASSERT_TRUE(db_.Set(child2, 2, 20).ok());
  ASSERT_TRUE(nested_.Commit(child2).ok());  // root2 never commits

  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 10);
  EXPECT_EQ(*db_.ReadCommitted(2), 0);
}

// With two shards the root may hold its locks on shard 1 only: the child
// still gets a permit for them at begin.
TEST(NestedShardedTest, ChildSeesParentsShardOneObjects) {
  Options options;
  options.num_shards = 2;
  Database db(options);
  NestedTransactions nested(&db);
  ObjectId ob = 1;
  while (db.ShardOf(ob) != 1) ++ob;
  TxnId root = *nested.BeginRoot();
  ASSERT_TRUE(db.Set(root, ob, 10).ok());
  TxnId child = *nested.BeginChild(root);
  EXPECT_EQ(*db.Read(child, ob), 10);
  ASSERT_TRUE(nested.Commit(child).ok());
  ASSERT_TRUE(nested.Commit(root).ok());
}

}  // namespace
}  // namespace ariesrh::etm
