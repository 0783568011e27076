// Open nested transactions: early release + compensation.

#include "etm/open_nested.h"

#include <gtest/gtest.h>

#include "restart_util.h"

namespace ariesrh::etm {
namespace {

class OpenNestedTest : public ::testing::Test {
 protected:
  Database db_;

  // A stock-reservation child: decrements stock, compensation restores it.
  Status ReserveStock(OpenNestedTransaction* txn, ObjectId item,
                      int64_t quantity) {
    return txn->RunOpenChild(
        [=](Database* db, TxnId child) {
          return db->Add(child, item, -quantity);
        },
        [=](Database* db, TxnId comp) {
          return db->Add(comp, item, quantity);
        });
  }
};

TEST_F(OpenNestedTest, ChildEffectsVisibleBeforeParentCommits) {
  OpenNestedTransaction txn = *OpenNestedTransaction::Create(&db_);
  ASSERT_TRUE(ReserveStock(&txn, 1, 3).ok());
  // Another transaction sees the reservation immediately (early release).
  TxnId observer = *db_.Begin();
  EXPECT_EQ(*db_.Read(observer, 1), -3);
  ASSERT_TRUE(db_.Commit(observer).ok());
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_F(OpenNestedTest, EarlyCommittedWorkSurvivesCrashEvenIfParentPending) {
  OpenNestedTransaction txn = *OpenNestedTransaction::Create(&db_);
  ASSERT_TRUE(ReserveStock(&txn, 1, 3).ok());
  db_.SimulateCrash();  // parent was still active
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), -3);  // unlike closed nesting!
}

TEST_F(OpenNestedTest, ParentAbortRunsCompensations) {
  OpenNestedTransaction txn = *OpenNestedTransaction::Create(&db_);
  ASSERT_TRUE(ReserveStock(&txn, 1, 3).ok());
  ASSERT_TRUE(ReserveStock(&txn, 2, 5).ok());
  EXPECT_EQ(txn.pending_compensations(), 2u);
  ASSERT_TRUE(txn.Abort().ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 0);  // semantically undone
  EXPECT_EQ(*db_.ReadCommitted(2), 0);
  EXPECT_EQ(txn.pending_compensations(), 0u);
}

TEST_F(OpenNestedTest, CommitDiscardsCompensations) {
  OpenNestedTransaction txn = *OpenNestedTransaction::Create(&db_);
  ASSERT_TRUE(ReserveStock(&txn, 1, 3).ok());
  ASSERT_TRUE(db_.Set(txn.parent(), 9, 77).ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(*db_.ReadCommitted(1), -3);
  EXPECT_EQ(*db_.ReadCommitted(9), 77);
  EXPECT_EQ(txn.pending_compensations(), 0u);
}

TEST_F(OpenNestedTest, FailedChildLeavesNoTrace) {
  OpenNestedTransaction txn = *OpenNestedTransaction::Create(&db_);
  Status status = txn.RunOpenChild(
      [](Database* db, TxnId child) -> Status {
        ARIESRH_RETURN_IF_ERROR(db->Add(child, 1, -3));
        return Status::InvalidArgument("out of stock");
      },
      [](Database* db, TxnId comp) { return db->Add(comp, 1, 3); });
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_EQ(txn.pending_compensations(), 0u);  // not registered
  EXPECT_EQ(*db_.ReadCommitted(1), 0);         // child rolled back
  ASSERT_TRUE(txn.Abort().ok());
}

TEST_F(OpenNestedTest, CompensationsRunInReverseOrder) {
  OpenNestedTransaction txn = *OpenNestedTransaction::Create(&db_);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(txn.RunOpenChild(
                       [=](Database* db, TxnId child) {
                         return db->Add(child, 1, 1);
                       },
                       [=, &order](Database* db, TxnId comp) {
                         order.push_back(i);
                         return db->Add(comp, 1, -1);
                       })
                    .ok());
  }
  ASSERT_TRUE(txn.Abort().ok());
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
}

TEST_F(OpenNestedTest, InterleavedActivityBetweenChildAndCompensation) {
  // The whole point of open nesting: others work with the released state
  // before the compensation runs; the compensation is semantic (relative),
  // so their work survives.
  OpenNestedTransaction txn = *OpenNestedTransaction::Create(&db_);
  ASSERT_TRUE(ReserveStock(&txn, 1, 3).ok());  // stock -3
  TxnId other = *db_.Begin();
  ASSERT_TRUE(db_.Add(other, 1, 10).ok());  // restock by another party
  ASSERT_TRUE(db_.Commit(other).ok());
  ASSERT_TRUE(txn.Abort().ok());  // compensation adds the 3 back
  EXPECT_EQ(*db_.ReadCommitted(1), 10);
}

TEST_F(OpenNestedTest, CompensationFailureIsReportedButOthersRun) {
  OpenNestedTransaction txn = *OpenNestedTransaction::Create(&db_);
  ASSERT_TRUE(txn.RunOpenChild(
                     [](Database* db, TxnId child) {
                       return db->Add(child, 1, 1);
                     },
                     [](Database* db, TxnId comp) {
                       return db->Add(comp, 1, -1);
                     })
                  .ok());
  ASSERT_TRUE(txn.RunOpenChild(
                     [](Database* db, TxnId child) {
                       return db->Add(child, 2, 1);
                     },
                     [](Database*, TxnId) {
                       return Status::IllegalState("compensation broken");
                     })
                  .ok());
  Status status = txn.Abort();
  EXPECT_TRUE(status.IsIllegalState());
  EXPECT_EQ(*db_.ReadCommitted(1), 0);  // the good compensation still ran
  EXPECT_EQ(*db_.ReadCommitted(2), 1);  // the broken one left its child
}

TEST_F(OpenNestedTest, CompensationsSurviveCrashOnlyIfRun) {
  // A crash between early release and compensation leaves the released
  // state (that is open nesting's contract: compensation is the
  // *application's* responsibility after recovery).
  OpenNestedTransaction txn = *OpenNestedTransaction::Create(&db_);
  ASSERT_TRUE(ReserveStock(&txn, 1, 3).ok());
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), -3);
  // The application re-runs its compensation after recovery.
  TxnId comp = *db_.Begin();
  ASSERT_TRUE(db_.Add(comp, 1, 3).ok());
  ASSERT_TRUE(db_.Commit(comp).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
}

// With two shards the parent may have touched only shard 1: Abort still
// aborts it, undoing its own update.
TEST(OpenNestedShardedTest, AbortAbortsAParentOnShardOne) {
  Options options;
  options.num_shards = 2;
  Database db(options);
  ObjectId ob = 1;
  while (db.ShardOf(ob) != 1) ++ob;
  OpenNestedTransaction txn = *OpenNestedTransaction::Create(&db);
  ASSERT_TRUE(db.Set(txn.parent(), ob, 77).ok());
  ASSERT_TRUE(txn.Abort().ok());
  EXPECT_FALSE(db.IsActive(txn.parent()));
  EXPECT_EQ(*db.ReadCommitted(ob), 0);
}

}  // namespace
}  // namespace ariesrh::etm
