// Joint transactions synthesized from delegation + dependencies.

#include "etm/joint.h"

#include <gtest/gtest.h>

#include "restart_util.h"

namespace ariesrh::etm {
namespace {

class JointTest : public ::testing::Test {
 protected:
  Database db_;
};

TEST_F(JointTest, MembersContributeAndGroupCommits) {
  JointTransaction group = *JointTransaction::Create(&db_);
  TxnId m1 = *group.Join();
  TxnId m2 = *group.Join();
  ASSERT_TRUE(db_.Set(m1, 1, 10).ok());
  ASSERT_TRUE(db_.Set(m2, 2, 20).ok());
  ASSERT_TRUE(group.Finish(m1).ok());
  ASSERT_TRUE(group.Finish(m2).ok());
  EXPECT_EQ(group.live_members(), 0u);
  ASSERT_TRUE(group.CommitAll().ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 10);
  EXPECT_EQ(*db_.ReadCommitted(2), 20);
}

TEST_F(JointTest, NothingDurableUntilGroupCommit) {
  JointTransaction group = *JointTransaction::Create(&db_);
  TxnId m1 = *group.Join();
  ASSERT_TRUE(db_.Set(m1, 1, 10).ok());
  ASSERT_TRUE(group.Finish(m1).ok());  // member committed...
  db_.SimulateCrash();                 // ...but the anchor had not
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
}

TEST_F(JointTest, CommitAllBlockedWhileMembersLive) {
  JointTransaction group = *JointTransaction::Create(&db_);
  TxnId m1 = *group.Join();
  ASSERT_TRUE(db_.Set(m1, 1, 10).ok());
  EXPECT_TRUE(group.CommitAll().IsBusy());
  ASSERT_TRUE(group.Finish(m1).ok());
  EXPECT_TRUE(group.CommitAll().ok());
}

TEST_F(JointTest, MemberAbortTakesDownTheGroup) {
  JointTransaction group = *JointTransaction::Create(&db_);
  TxnId m1 = *group.Join();
  TxnId m2 = *group.Join();
  ASSERT_TRUE(db_.Set(m1, 1, 10).ok());
  ASSERT_TRUE(group.Finish(m1).ok());  // m1's work now with the anchor
  ASSERT_TRUE(db_.Set(m2, 2, 20).ok());
  ASSERT_TRUE(db_.Abort(m2).ok());  // member failure
  // The cascade killed the anchor (and with it m1's contribution).
  EXPECT_EQ(db_.shard(0)->txn_manager()->Find(group.anchor())->state,
            TxnState::kAborted);
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
  EXPECT_EQ(*db_.ReadCommitted(2), 0);
}

TEST_F(JointTest, AbortAllKillsLiveMembers) {
  JointTransaction group = *JointTransaction::Create(&db_);
  TxnId m1 = *group.Join();
  TxnId m2 = *group.Join();
  ASSERT_TRUE(db_.Set(m1, 1, 10).ok());
  ASSERT_TRUE(db_.Set(m2, 2, 20).ok());
  ASSERT_TRUE(group.AbortAll().ok());
  EXPECT_EQ(db_.shard(0)->txn_manager()->Find(m1)->state, TxnState::kAborted);
  EXPECT_EQ(db_.shard(0)->txn_manager()->Find(m2)->state, TxnState::kAborted);
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
  EXPECT_EQ(*db_.ReadCommitted(2), 0);
  EXPECT_TRUE(group.AbortAll().ok());  // idempotent
}

TEST_F(JointTest, GroupSurvivesCrashOnlyAfterCommitAll) {
  {
    JointTransaction group = *JointTransaction::Create(&db_);
    TxnId m1 = *group.Join();
    ASSERT_TRUE(db_.Add(m1, 1, 5).ok());
    ASSERT_TRUE(group.Finish(m1).ok());
    ASSERT_TRUE(group.CommitAll().ok());
  }
  {
    JointTransaction group = *JointTransaction::Create(&db_);
    TxnId m1 = *group.Join();
    ASSERT_TRUE(db_.Add(m1, 1, 100).ok());
    ASSERT_TRUE(group.Finish(m1).ok());
    // Group never commits before the crash.
  }
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 5);
}

TEST_F(JointTest, MembersShareViaPermitsIfGranted) {
  JointTransaction group = *JointTransaction::Create(&db_);
  TxnId m1 = *group.Join();
  TxnId m2 = *group.Join();
  ASSERT_TRUE(db_.Set(m1, 1, 10).ok());
  EXPECT_TRUE(db_.Read(m2, 1).status().IsBusy());
  ASSERT_TRUE(db_.Permit(m1, m2, 1).ok());
  EXPECT_EQ(*db_.Read(m2, 1), 10);
  ASSERT_TRUE(group.Finish(m1).ok());
  ASSERT_TRUE(group.Finish(m2).ok());
  ASSERT_TRUE(group.CommitAll().ok());
}

// With two shards a member may touch only shard 1, where the anchor never
// enlisted: the group still sees it live, and AbortAll still takes it down.
TEST(JointShardedTest, AbortAllAbortsAMemberOnShardOne) {
  Options options;
  options.num_shards = 2;
  Database db(options);
  ObjectId ob = 1;
  while (db.ShardOf(ob) != 1) ++ob;
  JointTransaction group = *JointTransaction::Create(&db);
  TxnId member = *group.Join();
  ASSERT_TRUE(db.Set(member, ob, 10).ok());
  EXPECT_EQ(group.live_members(), 1u);
  ASSERT_TRUE(group.AbortAll().ok());
  EXPECT_FALSE(db.IsActive(member));
  EXPECT_FALSE(db.IsActive(group.anchor()));
  EXPECT_EQ(group.live_members(), 0u);
  EXPECT_EQ(*db.ReadCommitted(ob), 0);
}

}  // namespace
}  // namespace ariesrh::etm
