// The table API through the Database facade: put/get/delete/scan and
// read-modify-write, input validation, mode gating, rollback semantics
// (abort, savepoints), delegation by record identity, record locking, and
// the observability counters the operations feed.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/database.h"
#include "table/table_heap.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

class TableApiTest : public ::testing::Test {
 protected:
  /// Puts `key`=`value` in its own committed transaction.
  void PutCommitted(const std::string& key, const std::string& value) {
    TxnId t = *db_.Begin();
    ASSERT_TRUE(db_.TablePut(t, key, value).ok());
    ASSERT_TRUE(db_.Commit(t).ok());
  }

  Database db_;
};

TEST_F(TableApiTest, PutGetCommitRoundTrip) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.TablePut(t, "user:1", "alice").ok());
  Result<std::optional<std::string>> own = db_.TableGet(t, "user:1");
  ASSERT_TRUE(own.ok());
  ASSERT_TRUE(own->has_value());
  EXPECT_EQ(**own, "alice");
  ASSERT_TRUE(db_.Commit(t).ok());
  EXPECT_EQ(**db_.TableGetCommitted("user:1"), "alice");
}

TEST_F(TableApiTest, GetOfAbsentKeyIsEmptyNotError) {
  TxnId t = *db_.Begin();
  Result<std::optional<std::string>> got = db_.TableGet(t, "missing");
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->has_value());
  ASSERT_TRUE(db_.Commit(t).ok());
}

TEST_F(TableApiTest, PutOverwritesExistingValue) {
  PutCommitted("k", "v1");
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.TablePut(t, "k", "v2").ok());
  ASSERT_TRUE(db_.Commit(t).ok());
  EXPECT_EQ(**db_.TableGetCommitted("k"), "v2");
}

TEST_F(TableApiTest, DeleteRemovesAndReportsAbsence) {
  PutCommitted("k", "v");
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.TableDelete(t, "k").ok());
  // Deleting what is no longer there is NotFound, and harmless.
  EXPECT_TRUE(db_.TableDelete(t, "k").IsNotFound());
  EXPECT_TRUE(db_.TableDelete(t, "never-existed").IsNotFound());
  ASSERT_TRUE(db_.Commit(t).ok());
  EXPECT_FALSE(db_.TableGetCommitted("k")->has_value());
}

TEST_F(TableApiTest, ScanIsOrderedAndLimited) {
  for (const char* key : {"d", "b", "e", "a", "c"}) PutCommitted(key, key);
  TxnId t = *db_.Begin();
  Result<std::vector<std::pair<std::string, std::string>>> all =
      db_.TableScan(t, "", 0);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 5u);
  for (size_t i = 1; i < all->size(); ++i) {
    EXPECT_LT((*all)[i - 1].first, (*all)[i].first);
  }
  Result<std::vector<std::pair<std::string, std::string>>> mid =
      db_.TableScan(t, "b", 2);
  ASSERT_TRUE(mid.ok());
  ASSERT_EQ(mid->size(), 2u);
  EXPECT_EQ((*mid)[0].first, "b");
  EXPECT_EQ((*mid)[1].first, "c");
  ASSERT_TRUE(db_.Commit(t).ok());
}

TEST_F(TableApiTest, ReadModifyWriteIncrementsAtomically) {
  PutCommitted("ctr", "10");
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_
                  .TableReadModifyWrite(
                      t, "ctr",
                      [](const std::optional<std::string>& cur) {
                        return std::to_string(
                            cur ? std::stoll(*cur) + 1 : 1);
                      })
                  .ok());
  // RMW holds the exclusive lock from the read: a second transaction
  // cannot sneak in between the read and the write.
  TxnId other = *db_.Begin();
  EXPECT_TRUE(db_.TableGet(other, "ctr").status().IsBusy());
  ASSERT_TRUE(db_.Commit(t).ok());
  ASSERT_TRUE(db_.Commit(other).ok());
  EXPECT_EQ(**db_.TableGetCommitted("ctr"), "11");
}

TEST_F(TableApiTest, AbortUndoesEveryTableWrite) {
  PutCommitted("stays", "base");
  PutCommitted("updated", "old");
  PutCommitted("deleted", "gone?");
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.TablePut(t, "inserted", "new").ok());
  ASSERT_TRUE(db_.TablePut(t, "updated", "new").ok());
  ASSERT_TRUE(db_.TableDelete(t, "deleted").ok());
  ASSERT_TRUE(db_.Abort(t).ok());
  EXPECT_FALSE(db_.TableGetCommitted("inserted")->has_value());
  EXPECT_EQ(**db_.TableGetCommitted("updated"), "old");
  EXPECT_EQ(**db_.TableGetCommitted("deleted"), "gone?");
  EXPECT_EQ(**db_.TableGetCommitted("stays"), "base");
}

TEST_F(TableApiTest, SavepointRollsBackTheSuffix) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.TablePut(t, "a", "v1").ok());
  Result<Lsn> sp = db_.Savepoint(t);
  ASSERT_TRUE(sp.ok());
  ASSERT_TRUE(db_.TablePut(t, "a", "v2").ok());
  ASSERT_TRUE(db_.TablePut(t, "b", "side").ok());
  ASSERT_TRUE(db_.RollbackTo(t, *sp).ok());
  EXPECT_EQ(**db_.TableGet(t, "a"), "v1");
  EXPECT_FALSE(db_.TableGet(t, "b")->has_value());
  ASSERT_TRUE(db_.Commit(t).ok());
  EXPECT_EQ(**db_.TableGetCommitted("a"), "v1");
  EXPECT_FALSE(db_.TableGetCommitted("b")->has_value());
}

TEST_F(TableApiTest, DelegationByRecordIdentity) {
  // The record's rid is an ObjectId: the delegation machinery moves table
  // scopes exactly like plain-object scopes. Tor writes, delegates the
  // key's scope to tee, and the outcome follows tee's verdict.
  TxnId tor = *db_.Begin();
  TxnId tee = *db_.Begin();
  ASSERT_TRUE(db_.TablePut(tor, "handoff", "from-tor").ok());
  ASSERT_TRUE(
      db_.Delegate(tor, tee, DelegationSpec::Objects({table::TableRid(
                                 "handoff")}))
          .ok());
  ASSERT_TRUE(db_.Commit(tor).ok());
  ASSERT_TRUE(db_.Commit(tee).ok());
  EXPECT_EQ(**db_.TableGetCommitted("handoff"), "from-tor");

  // And the mirror: tee aborts, so the delegated insert is undone even
  // though the original writer committed.
  TxnId tor2 = *db_.Begin();
  TxnId tee2 = *db_.Begin();
  ASSERT_TRUE(db_.TablePut(tor2, "undone", "from-tor").ok());
  ASSERT_TRUE(
      db_.Delegate(tor2, tee2, DelegationSpec::Objects({table::TableRid(
                                   "undone")}))
          .ok());
  ASSERT_TRUE(db_.Commit(tor2).ok());
  ASSERT_TRUE(db_.Abort(tee2).ok());
  EXPECT_FALSE(db_.TableGetCommitted("undone")->has_value());
}

TEST_F(TableApiTest, RecordLocksConflictOnTheSameKey) {
  PutCommitted("k", "v");
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.TablePut(t1, "k", "t1").ok());
  TxnId t2 = *db_.Begin();
  EXPECT_TRUE(db_.TablePut(t2, "k", "t2").IsBusy());
  EXPECT_TRUE(db_.TableGet(t2, "k").status().IsBusy());
  // A different key is a different record: no conflict under record
  // locking, even if it shares a bucket.
  ASSERT_TRUE(db_.TablePut(t2, "unrelated", "fine").ok());
  ASSERT_TRUE(db_.Commit(t1).ok());
  ASSERT_TRUE(db_.Commit(t2).ok());
  EXPECT_EQ(**db_.TableGetCommitted("k"), "t1");
}

TEST_F(TableApiTest, SharedReadersCoexist) {
  PutCommitted("k", "v");
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  EXPECT_TRUE(db_.TableGet(t1, "k").ok());
  EXPECT_TRUE(db_.TableGet(t2, "k").ok());
  // But a writer cannot join the readers.
  TxnId t3 = *db_.Begin();
  EXPECT_TRUE(db_.TablePut(t3, "k", "w").IsBusy());
  ASSERT_TRUE(db_.Commit(t1).ok());
  ASSERT_TRUE(db_.Commit(t2).ok());
  ASSERT_TRUE(db_.Commit(t3).ok());
}

TEST_F(TableApiTest, ValueSizeCapEnforced) {
  Options options;
  options.table_max_value_bytes = 8;
  Database db(options);
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.TablePut(t, "k", std::string(8, 'x')).ok());
  EXPECT_TRUE(db.TablePut(t, "k", std::string(9, 'x')).IsInvalidArgument());
  ASSERT_TRUE(db.Commit(t).ok());
  EXPECT_EQ(db.TableGetCommitted("k")->value(), std::string(8, 'x'));
}

TEST_F(TableApiTest, KeyValidation) {
  TxnId t = *db_.Begin();
  EXPECT_TRUE(db_.TablePut(t, "", "v").IsInvalidArgument());
  EXPECT_TRUE(db_.TableGet(t, "").status().IsInvalidArgument());
  const std::string long_key(table::kMaxKeyBytes + 1, 'k');
  EXPECT_TRUE(db_.TablePut(t, long_key, "v").IsInvalidArgument());
  const std::string max_key(table::kMaxKeyBytes, 'k');
  EXPECT_TRUE(db_.TablePut(t, max_key, "v").ok());
  ASSERT_TRUE(db_.Commit(t).ok());
}

TEST_F(TableApiTest, RewritingBaselinesRejectTableOps) {
  // kEager/kLazyRewrite rewrite log records in place during delegation and
  // cannot interpret logical table records — the API refuses up front.
  for (DelegationMode mode :
       {DelegationMode::kEager, DelegationMode::kLazyRewrite}) {
    Options options;
    options.delegation_mode = mode;
    Database db(options);
    TxnId t = *db.Begin();
    EXPECT_TRUE(db.TablePut(t, "k", "v").IsNotSupported())
        << DelegationModeName(mode);
    EXPECT_TRUE(db.TableGet(t, "k").status().IsNotSupported());
    EXPECT_TRUE(db.TableDelete(t, "k").IsNotSupported());
    ASSERT_TRUE(db.Commit(t).ok());
  }
  // kDisabled forgoes delegation but keeps conventional ARIES recovery:
  // table ops work.
  Options disabled;
  disabled.delegation_mode = DelegationMode::kDisabled;
  Database db(disabled);
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.TablePut(t, "k", "v").ok());
  ASSERT_TRUE(db.Commit(t).ok());
  EXPECT_EQ(**db.TableGetCommitted("k"), "v");
}

TEST_F(TableApiTest, CountersAndScanHistogramFeed) {
  PutCommitted("a", "1");
  PutCommitted("b", "2");
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.TableGet(t, "a").ok());
  ASSERT_TRUE(db_.TableScan(t, "", 0).ok());
  ASSERT_TRUE(db_.TableDelete(t, "b").ok());
  ASSERT_TRUE(db_.Commit(t).ok());
  EXPECT_EQ(db_.stats().table_puts, 2u);
  EXPECT_EQ(db_.stats().table_gets, 1u);
  EXPECT_EQ(db_.stats().table_scans, 1u);
  EXPECT_EQ(db_.stats().table_deletes, 1u);
  EXPECT_EQ(db_.stats().table_ops, 5u);
  obs::Histogram* scan_len =
      db_.metrics()->FindHistogram("ariesrh_table_scan_len");
  ASSERT_NE(scan_len, nullptr);
  EXPECT_EQ(scan_len->Count(), 1u);
  EXPECT_EQ(scan_len->GetSnapshot().sum, 2u);
  // The aggregate counters surface in the registry like every other stat.
  EXPECT_NE(db_.metrics()->FindCounter("ariesrh_table_ops"), nullptr);
}

TEST_F(TableApiTest, SurvivesCrashAndRecovery) {
  PutCommitted("durable", "yes");
  TxnId loser = *db_.Begin();
  ASSERT_TRUE(db_.TablePut(loser, "durable", "clobbered").ok());
  ASSERT_TRUE(db_.TablePut(loser, "phantom", "no").ok());
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(**db_.TableGetCommitted("durable"), "yes");
  EXPECT_FALSE(db_.TableGetCommitted("phantom")->has_value());
  // The recovered table is fully usable.
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.TablePut(t, "after", "recovery").ok());
  ASSERT_TRUE(db_.Commit(t).ok());
  EXPECT_EQ(**db_.TableGetCommitted("after"), "recovery");
}

TEST_F(TableApiTest, TableAndPlainObjectsShareOneTransaction) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Set(t, 7, 70).ok());
  ASSERT_TRUE(db_.TablePut(t, "seven", "70").ok());
  ASSERT_TRUE(db_.Commit(t).ok());
  TxnId loser = *db_.Begin();
  ASSERT_TRUE(db_.Set(loser, 7, 71).ok());
  ASSERT_TRUE(db_.TablePut(loser, "seven", "71").ok());
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(7), 70);
  EXPECT_EQ(**db_.TableGetCommitted("seven"), "70");
}

}  // namespace
}  // namespace ariesrh
