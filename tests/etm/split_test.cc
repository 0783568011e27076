// Split/Join transactions synthesized from delegation (paper Section 2.2.1).

#include "etm/split.h"

#include <gtest/gtest.h>

#include "restart_util.h"

namespace ariesrh::etm {
namespace {

class SplitTest : public ::testing::Test {
 protected:
  Database db_;
  SplitTransactions split_{&db_};
};

TEST_F(SplitTest, SplitTransfersResponsibility) {
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 1, 10).ok());
  ASSERT_TRUE(db_.Set(t1, 2, 20).ok());
  Result<TxnId> t2 = split_.Split(t1, {1});
  ASSERT_TRUE(t2.ok());
  EXPECT_FALSE(db_.shard(0)->txn_manager()->Find(t1)->IsResponsibleFor(1));
  EXPECT_TRUE(db_.shard(0)->txn_manager()->Find(*t2)->IsResponsibleFor(1));
  EXPECT_TRUE(db_.shard(0)->txn_manager()->Find(t1)->IsResponsibleFor(2));
}

TEST_F(SplitTest, SplitHalvesCommitIndependently) {
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 1, 10).ok());
  ASSERT_TRUE(db_.Set(t1, 2, 20).ok());
  TxnId t2 = *split_.Split(t1, {1});
  ASSERT_TRUE(db_.Commit(t2).ok());   // split-off commits first
  EXPECT_EQ(*db_.ReadCommitted(1), 10);
  ASSERT_TRUE(db_.Abort(t1).ok());    // splitting transaction aborts
  EXPECT_EQ(*db_.ReadCommitted(1), 10);  // survives
  EXPECT_EQ(*db_.ReadCommitted(2), 0);   // dies
}

TEST_F(SplitTest, SplitOffCanAbortAlone) {
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 1, 10).ok());
  ASSERT_TRUE(db_.Set(t1, 2, 20).ok());
  TxnId t2 = *split_.Split(t1, {1});
  ASSERT_TRUE(db_.Abort(t2).ok());
  ASSERT_TRUE(db_.Commit(t1).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
  EXPECT_EQ(*db_.ReadCommitted(2), 20);
}

TEST_F(SplitTest, SplitOffCanAffectObjectsWithoutInvokingOperations) {
  // Paper: "a split transaction can affect objects in the database by
  // committing and aborting the delegated operations even without invoking
  // any operation on the objects."
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 1, 10).ok());
  TxnId t2 = *split_.Split(t1, {1});
  const Transaction* tx2 = db_.shard(0)->txn_manager()->Find(t2);
  // t2 never invoked an update, yet is responsible.
  EXPECT_TRUE(tx2->IsResponsibleFor(1));
  EXPECT_EQ(tx2->ob_list.at(1).scopes[0].invoker, t1);
  ASSERT_TRUE(db_.Commit(t2).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 10);
}

TEST_F(SplitTest, SplitAllLeavesNothingBehind) {
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 1, 10).ok());
  ASSERT_TRUE(db_.Add(t1, 2, 20).ok());
  TxnId t2 = *split_.SplitAll(t1);
  EXPECT_TRUE(db_.shard(0)->txn_manager()->Find(t1)->ob_list.empty());
  ASSERT_TRUE(db_.Commit(t2).ok());
  ASSERT_TRUE(db_.Abort(t1).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 10);
  EXPECT_EQ(*db_.ReadCommitted(2), 20);
}

TEST_F(SplitTest, JoinMergesWorkIntoSurvivor) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 1, 10).ok());
  ASSERT_TRUE(db_.Set(t2, 2, 20).ok());
  ASSERT_TRUE(split_.Join(t2, t1).ok());  // t2's work joins t1
  EXPECT_TRUE(db_.shard(0)->txn_manager()->Find(t1)->IsResponsibleFor(2));
  ASSERT_TRUE(db_.Abort(t1).ok());  // takes both objects down
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
  EXPECT_EQ(*db_.ReadCommitted(2), 0);
}

TEST_F(SplitTest, JoinThenCommitPublishesBoth) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 1, 10).ok());
  ASSERT_TRUE(db_.Set(t2, 2, 20).ok());
  ASSERT_TRUE(split_.Join(t2, t1).ok());
  ASSERT_TRUE(db_.Commit(t1).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 10);
  EXPECT_EQ(*db_.ReadCommitted(2), 20);
}

TEST_F(SplitTest, SplitSurvivesCrashWithDelegateeCommit) {
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 1, 10).ok());
  ASSERT_TRUE(db_.Set(t1, 2, 20).ok());
  TxnId t2 = *split_.Split(t1, {1});
  ASSERT_TRUE(db_.Commit(t2).ok());
  db_.SimulateCrash();  // t1 still active -> loser
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 10);
  EXPECT_EQ(*db_.ReadCommitted(2), 0);
}

TEST_F(SplitTest, RepeatedSplitsFormIndependentPieces) {
  TxnId t1 = *db_.Begin();
  for (ObjectId ob = 0; ob < 4; ++ob) {
    ASSERT_TRUE(db_.Set(t1, ob, static_cast<int64_t>(ob) + 1).ok());
  }
  std::vector<TxnId> pieces;
  for (ObjectId ob = 0; ob < 4; ++ob) {
    pieces.push_back(*split_.Split(t1, {ob}));
  }
  // Alternate fates.
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(db_.Commit(pieces[i]).ok());
    } else {
      ASSERT_TRUE(db_.Abort(pieces[i]).ok());
    }
  }
  ASSERT_TRUE(db_.Commit(t1).ok());
  for (ObjectId ob = 0; ob < 4; ++ob) {
    EXPECT_EQ(*db_.ReadCommitted(ob),
              ob % 2 == 0 ? static_cast<int64_t>(ob) + 1 : 0);
  }
}

}  // namespace
}  // namespace ariesrh::etm
