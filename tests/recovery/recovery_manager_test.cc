// RecoveryManager edge cases: torn tails of several records, damaged
// master records, empty logs, recovery accounting.

#include <gtest/gtest.h>

#include "core/database.h"
#include "recovery/recovery_manager.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

TEST(TruncateTornTailTest, DropsSingleTornRecord) {
  Stats stats;
  SimulatedDisk disk(&stats);
  LogManager log(&disk, &stats);
  log.Append(LogRecord::MakeBegin(1));
  log.Append(LogRecord::MakeCommit(1, 1));
  ASSERT_TRUE(log.FlushAll().ok());
  ASSERT_TRUE(disk.CorruptLogTail(2).ok());
  ASSERT_TRUE(RecoveryManager::TruncateTornTail(&disk).ok());
  EXPECT_EQ(disk.stable_end_lsn(), 1u);
}

TEST(TruncateTornTailTest, DropsMultipleTornRecords) {
  Stats stats;
  SimulatedDisk disk(&stats);
  LogManager log(&disk, &stats);
  log.Append(LogRecord::MakeBegin(1));
  ASSERT_TRUE(log.FlushAll().ok());
  // Append raw garbage "records" directly to the device.
  disk.AppendLogRecords({"garbage-1", "garbage-2", "garbage-3"});
  ASSERT_TRUE(RecoveryManager::TruncateTornTail(&disk).ok());
  EXPECT_EQ(disk.stable_end_lsn(), 1u);
}

TEST(TruncateTornTailTest, EmptyLogIsFine) {
  Stats stats;
  SimulatedDisk disk(&stats);
  ASSERT_TRUE(RecoveryManager::TruncateTornTail(&disk).ok());
  EXPECT_EQ(disk.stable_end_lsn(), 0u);
}

TEST(TruncateTornTailTest, EntirelyGarbageLogTruncatesToEmpty) {
  Stats stats;
  SimulatedDisk disk(&stats);
  disk.AppendLogRecords({"junk"});
  ASSERT_TRUE(RecoveryManager::TruncateTornTail(&disk).ok());
  EXPECT_EQ(disk.stable_end_lsn(), 0u);
}

TEST(RecoveryManagerTest, EmptyLogRecovery) {
  Database db;
  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->winners, 0u);
  EXPECT_EQ(outcome->losers, 0u);
  EXPECT_EQ(outcome->checkpoint_used, 0u);
  // A fresh database remains usable.
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 1).ok());
  ASSERT_TRUE(db.Commit(t).ok());
}

TEST(RecoveryManagerTest, MasterPointingAtNonCheckpointIsCorruption) {
  Database db;
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 1).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  // Sabotage: master points at the BEGIN record.
  db.shard(0)->disk()->SetMasterRecord(1);
  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsCorruption());
}

TEST(RecoveryManagerTest, MasterBeyondLogEndIsIgnored) {
  Database db;
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 7).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  // A master record that points past the durable log (e.g. the checkpoint
  // record itself was torn away) must be ignored, not fatal.
  db.shard(0)->disk()->SetMasterRecord(10000);
  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->checkpoint_used, 0u);
  EXPECT_EQ(*db.ReadCommitted(1), 7);
}

TEST(RecoveryManagerTest, OutcomeCountsWinnersAndLosers) {
  Database db;
  for (int i = 0; i < 3; ++i) {
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Add(t, 1, 1).ok());
    ASSERT_TRUE(db.Commit(t).ok());
  }
  for (int i = 0; i < 2; ++i) {
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Add(t, 2, 1).ok());
  }
  ASSERT_TRUE(db.shard(0)->log_manager()->FlushAll().ok());
  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->winners, 3u);
  EXPECT_EQ(outcome->losers, 2u);
}

TEST(RecoveryManagerTest, LosersGetEndRecords) {
  Database db;
  TxnId loser = *db.Begin();
  ASSERT_TRUE(db.Add(loser, 1, 5).ok());
  ASSERT_TRUE(db.shard(0)->log_manager()->FlushAll().ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  // The last durable record is the loser's END (after its CLR).
  LogManager* log = db.shard(0)->log_manager();
  LogRecord last = *log->Read(log->flushed_lsn());
  EXPECT_EQ(last.type, LogRecordType::kEnd);
  EXPECT_EQ(last.txn_id, loser);
  // A further recovery finds no losers at all.
  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->losers, 0u);
}

TEST(RecoveryManagerTest, CommittedButUnendedTxnGetsEnd) {
  // Crash window: COMMIT flushed, END lost with the tail. Recovery must
  // treat the transaction as a winner and write the missing END.
  Database db;
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 10).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  // The END record sits in the tail; drop it by truncating to the COMMIT.
  db.SimulateCrash();  // tail (incl. END if unflushed) discarded
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->winners, 1u);
  EXPECT_EQ(*db.ReadCommitted(1), 10);
}

TEST(RecoveryManagerTest, RecoveryPassesCounted) {
  Database db;
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Add(t, 1, 1).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  db.SimulateCrash();
  const Stats before = db.stats();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  const Stats delta = db.stats().Delta(before);
  EXPECT_EQ(delta.recovery_passes, 2u);
  EXPECT_GT(delta.recovery_forward_records, 0u);
}

}  // namespace
}  // namespace ariesrh
