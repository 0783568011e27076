#include "wal/log_dump.h"

#include <gtest/gtest.h>

#include "core/database.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

class LogDumpTest : public ::testing::Test {
 protected:
  Database db_;
};

TEST_F(LogDumpTest, DumpRendersOneLinePerRecord) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Set(t, 5, 42).ok());
  ASSERT_TRUE(db_.Commit(t).ok());
  Result<std::string> dump = DumpLog(*db_.shard(0)->log_manager());
  ASSERT_TRUE(dump.ok());
  // BEGIN, UPDATE, COMMIT, END -> four lines.
  EXPECT_EQ(std::count(dump->begin(), dump->end(), '\n'), 4);
  EXPECT_NE(dump->find("BEGIN"), std::string::npos);
  EXPECT_NE(dump->find("UPDATE"), std::string::npos);
  EXPECT_NE(dump->find("COMMIT"), std::string::npos);
  EXPECT_NE(dump->find("END"), std::string::npos);
}

TEST_F(LogDumpTest, RangeDump) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Set(t, 5, 42).ok());
  ASSERT_TRUE(db_.Commit(t).ok());
  Result<std::string> dump = DumpLog(*db_.shard(0)->log_manager(), 2, 2);
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(std::count(dump->begin(), dump->end(), '\n'), 1);
  EXPECT_NE(dump->find("UPDATE"), std::string::npos);
}

TEST_F(LogDumpTest, ArchivedPrefixMarked) {
  for (int i = 0; i < 5; ++i) {
    TxnId t = *db_.Begin();
    ASSERT_TRUE(db_.Add(t, 1, 1).ok());
    ASSERT_TRUE(db_.Commit(t).ok());
  }
  ASSERT_TRUE(db_.shard(0)->buffer_pool()->FlushAll().ok());
  ASSERT_TRUE(db_.Checkpoint().ok());
  ASSERT_TRUE(db_.ArchiveLog().ok());
  Result<std::string> dump = DumpLog(*db_.shard(0)->log_manager());
  ASSERT_TRUE(dump.ok());
  EXPECT_NE(dump->find("<archived>"), std::string::npos);
  EXPECT_NE(dump->find("CKPT_END"), std::string::npos);
}

TEST_F(LogDumpTest, ObjectHistoryListsUpdatesInOrder) {
  TxnId a = *db_.Begin();
  TxnId b = *db_.Begin();
  ASSERT_TRUE(db_.Add(a, 5, 10).ok());
  ASSERT_TRUE(db_.Add(b, 5, 20).ok());
  ASSERT_TRUE(db_.Add(a, 6, 99).ok());  // different object: excluded
  ASSERT_TRUE(db_.Add(a, 5, 30).ok());
  Result<std::vector<ObjectHistoryEntry>> history =
      ObjectHistory(*db_.shard(0)->log_manager(), 5);
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 3u);
  EXPECT_EQ((*history)[0].writer, a);
  EXPECT_EQ((*history)[0].after, 10);
  EXPECT_EQ((*history)[1].writer, b);
  EXPECT_EQ((*history)[2].after, 30);
  EXPECT_LT((*history)[0].lsn, (*history)[2].lsn);
  ASSERT_TRUE(db_.Commit(a).ok());
  ASSERT_TRUE(db_.Commit(b).ok());
}

TEST_F(LogDumpTest, ObjectHistoryMarksCompensatedUpdates) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Add(t, 5, 10).ok());
  ASSERT_TRUE(db_.Abort(t).ok());
  TxnId w = *db_.Begin();
  ASSERT_TRUE(db_.Add(w, 5, 20).ok());
  ASSERT_TRUE(db_.Commit(w).ok());
  Result<std::vector<ObjectHistoryEntry>> history =
      ObjectHistory(*db_.shard(0)->log_manager(), 5);
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 2u);
  EXPECT_TRUE((*history)[0].compensated);
  EXPECT_FALSE((*history)[1].compensated);
}

TEST_F(LogDumpTest, EmptyObjectHistory) {
  Result<std::vector<ObjectHistoryEntry>> history =
      ObjectHistory(*db_.shard(0)->log_manager(), 123);
  ASSERT_TRUE(history.ok());
  EXPECT_TRUE(history->empty());
}

TEST_F(LogDumpTest, DelegateRecordVisibleInDump) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 5, 1).ok());
  ASSERT_TRUE(db_.Delegate(t1, t2, DelegationSpec::Objects({5})).ok());
  Result<std::string> dump = DumpLog(*db_.shard(0)->log_manager());
  ASSERT_TRUE(dump.ok());
  EXPECT_NE(dump->find("DELEGATE"), std::string::npos);
  EXPECT_NE(dump->find("=>"), std::string::npos);
}

TEST_F(LogDumpTest, ObjectHistoryResolvesDelegatedResponsibility) {
  // Regression pin for the delegation-blind history bug: the pre-fix
  // ObjectHistory reported only the record's invoker, so a delegated
  // update looked like the delegator still answered for it — even across
  // a crash, where recovery's own scope reconstruction says otherwise.
  TxnId tor = *db_.Begin();
  TxnId tee = *db_.Begin();
  ASSERT_TRUE(db_.Set(tor, 5, 50).ok());
  ASSERT_TRUE(db_.Delegate(tor, tee, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Commit(tee).ok());
  ASSERT_TRUE(db_.Commit(tor).ok());
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());

  Result<std::vector<ObjectHistoryEntry>> history =
      ObjectHistory(*db_.shard(0)->log_manager(), 5);
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  ASSERT_EQ(history->size(), 1u);
  EXPECT_EQ((*history)[0].writer, tor);        // as recorded in the log
  EXPECT_EQ((*history)[0].responsible, tee);   // as delegation resolved it
  EXPECT_TRUE((*history)[0].responsible_committed);
}

TEST_F(LogDumpTest, TableKeyHistoryResolvesDelegatedResponsibility) {
  TxnId tor = *db_.Begin();
  TxnId tee = *db_.Begin();
  ASSERT_TRUE(db_.TablePut(tor, "acct", "10").ok());
  ASSERT_TRUE(db_.Delegate(tor, tee, DelegationSpec::All()).ok());
  ASSERT_TRUE(db_.Commit(tee).ok());
  ASSERT_TRUE(db_.Commit(tor).ok());

  Result<std::vector<TableHistoryEntry>> history =
      TableKeyHistory(*db_.shard(0)->log_manager(), "acct");
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  ASSERT_EQ(history->size(), 1u);
  EXPECT_EQ((*history)[0].writer, tor);
  EXPECT_EQ((*history)[0].responsible, tee);
  EXPECT_TRUE((*history)[0].responsible_committed);
}

TEST_F(LogDumpTest, DumpPropagatesReadFailuresInsideTheRetainedRange) {
  // Regression pin for the swallowed-read-failure bug: a record that fails
  // to read *inside* the retained range must surface its error instead of
  // being silently skipped; only LSNs below first_retained_lsn() render as
  // the <archived> marker.
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Set(t, 5, 42).ok());
  ASSERT_TRUE(db_.Commit(t).ok());
  ASSERT_TRUE(db_.shard(0)->log_manager()->FlushAll().ok());
  ASSERT_TRUE(db_.shard(0)->disk()->CorruptLogTail(4).ok());
  Result<std::string> dump = DumpLog(*db_.shard(0)->log_manager());
  ASSERT_FALSE(dump.ok());  // pre-fix: ok, with the torn record dropped
  EXPECT_FALSE(dump.status().IsNotFound()) << dump.status().ToString();
}

}  // namespace
}  // namespace ariesrh
