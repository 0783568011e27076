// Reporting transactions synthesized from delegation (paper Section 2.2).

#include "etm/reporting.h"

#include <gtest/gtest.h>

#include "restart_util.h"

namespace ariesrh::etm {
namespace {

class ReportingTest : public ::testing::Test {
 protected:
  Database db_;
};

TEST_F(ReportingTest, PublishMakesTentativeResultsPermanent) {
  TxnId worker = *db_.Begin();
  Reporter reporter(&db_, worker);
  ASSERT_TRUE(db_.Set(worker, 1, 10).ok());
  ASSERT_TRUE(reporter.Publish({1}).ok());
  EXPECT_EQ(reporter.reports(), 1);
  // The result is durable even though the worker is still running.
  EXPECT_EQ(*db_.ReadCommitted(1), 10);
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 10);
}

TEST_F(ReportingTest, WorkerAbortCannotTakeBackReports) {
  TxnId worker = *db_.Begin();
  Reporter reporter(&db_, worker);
  ASSERT_TRUE(db_.Set(worker, 1, 10).ok());
  ASSERT_TRUE(reporter.Publish({1}).ok());
  ASSERT_TRUE(db_.Set(worker, 2, 20).ok());
  ASSERT_TRUE(db_.Abort(worker).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 10);  // reported: kept
  EXPECT_EQ(*db_.ReadCommitted(2), 0);   // unreported: gone
}

TEST_F(ReportingTest, PeriodicReportsAccumulate) {
  TxnId worker = *db_.Begin();
  Reporter reporter(&db_, worker);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db_.Add(worker, 1, 10).ok());
    ASSERT_TRUE(reporter.PublishAll().ok());
    EXPECT_EQ(*db_.ReadCommitted(1), (i + 1) * 10);
  }
  EXPECT_EQ(reporter.reports(), 5);
  ASSERT_TRUE(db_.Abort(worker).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 50);  // all five reports stick
}

TEST_F(ReportingTest, PublishRequiresResponsibility) {
  TxnId worker = *db_.Begin();
  Reporter reporter(&db_, worker);
  EXPECT_TRUE(reporter.Publish({123}).IsInvalidArgument());
  EXPECT_EQ(reporter.reports(), 0);
}

TEST_F(ReportingTest, PublishAllWithNothingPendingStillCommits) {
  TxnId worker = *db_.Begin();
  Reporter reporter(&db_, worker);
  ASSERT_TRUE(reporter.PublishAll().ok());
  EXPECT_EQ(reporter.reports(), 1);
}

TEST_F(ReportingTest, ReportsVisibleToOtherTransactions) {
  TxnId worker = *db_.Begin();
  TxnId observer = *db_.Begin();
  Reporter reporter(&db_, worker);
  ASSERT_TRUE(db_.Set(worker, 1, 10).ok());
  EXPECT_TRUE(db_.Read(observer, 1).status().IsBusy());  // locked
  ASSERT_TRUE(reporter.Publish({1}).ok());  // report commit released it
  EXPECT_EQ(*db_.Read(observer, 1), 10);
  ASSERT_TRUE(db_.Commit(observer).ok());
  ASSERT_TRUE(db_.Commit(worker).ok());
}

}  // namespace
}  // namespace ariesrh::etm
