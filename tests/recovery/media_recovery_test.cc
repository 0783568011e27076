// Media recovery: backup + log replay after losing the stable pages
// entirely — the third leg of ARIES recovery, here with delegation in the
// replayed history.

#include <gtest/gtest.h>

#include "core/database.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

class MediaRecoveryTest : public ::testing::Test {
 protected:
  Database db_;
};

TEST_F(MediaRecoveryTest, RestoreExactBackupState) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Set(t, 1, 10).ok());
  ASSERT_TRUE(db_.Commit(t).ok());
  Result<Database::BackupImage> backup = db_.Backup();
  ASSERT_TRUE(backup.ok()) << backup.status().ToString();

  db_.SimulateMediaFailure();
  ASSERT_TRUE(db_.RestoreFromBackup(*backup).ok());
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 10);
}

TEST_F(MediaRecoveryTest, RollsForwardPastTheBackup) {
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 1, 10).ok());
  ASSERT_TRUE(db_.Commit(t1).ok());
  Database::BackupImage backup = *db_.Backup();

  // Work after the backup: must be reconstructed from the log alone.
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t2, 1, 20).ok());
  ASSERT_TRUE(db_.Add(t2, 2, 5).ok());
  ASSERT_TRUE(db_.Commit(t2).ok());
  TxnId loser = *db_.Begin();
  ASSERT_TRUE(db_.Add(loser, 2, 100).ok());
  ASSERT_TRUE(db_.shard(0)->log_manager()->FlushAll().ok());

  db_.SimulateMediaFailure();
  ASSERT_TRUE(db_.RestoreFromBackup(backup).ok());
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 20);
  EXPECT_EQ(*db_.ReadCommitted(2), 5);  // loser's 100 rolled back
}

TEST_F(MediaRecoveryTest, DelegationInReplayedSuffix) {
  Database::BackupImage backup = *db_.Backup();
  TxnId t0 = *db_.Begin();
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t0, 5, 42).ok());
  ASSERT_TRUE(db_.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db_.Commit(t1).ok());
  // t0 stays active -> loser, but its update was delegated to a winner.
  ASSERT_TRUE(db_.shard(0)->log_manager()->FlushAll().ok());

  db_.SimulateMediaFailure();
  ASSERT_TRUE(db_.RestoreFromBackup(backup).ok());
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 42);
}

TEST_F(MediaRecoveryTest, DelegationStateInsideTheBackup) {
  TxnId t0 = *db_.Begin();
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t0, 5, 42).ok());
  ASSERT_TRUE(db_.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
  // Backup taken while the delegation is in flight: the scopes live in the
  // backup's checkpoint.
  Database::BackupImage backup = *db_.Backup();
  ASSERT_TRUE(db_.Commit(t0).ok());

  db_.SimulateMediaFailure();
  ASSERT_TRUE(db_.RestoreFromBackup(backup).ok());
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  // The delegatee never committed: the update dies with it.
  EXPECT_EQ(*db_.ReadCommitted(5), 0);
}

TEST_F(MediaRecoveryTest, RestoreRequiresFailure) {
  Database::BackupImage backup = *db_.Backup();
  EXPECT_TRUE(db_.RestoreFromBackup(backup).IsIllegalState());
}

TEST_F(MediaRecoveryTest, RestoreRejectsEmptyBackup) {
  db_.SimulateMediaFailure();
  Database::BackupImage empty;
  EXPECT_TRUE(db_.RestoreFromBackup(empty).IsInvalidArgument());
}

TEST_F(MediaRecoveryTest, RestoreRejectedWhenLogArchivedPastBackup) {
  Database::BackupImage backup = *db_.Backup();
  // Lots of later work, then archive the log beyond the backup's ckpt.
  for (int i = 0; i < 10; ++i) {
    TxnId t = *db_.Begin();
    ASSERT_TRUE(db_.Add(t, 1, 1).ok());
    ASSERT_TRUE(db_.Commit(t).ok());
  }
  ASSERT_TRUE(db_.shard(0)->buffer_pool()->FlushAll().ok());
  ASSERT_TRUE(db_.Checkpoint().ok());
  ASSERT_TRUE(db_.ArchiveLog().ok());
  ASSERT_GT(db_.shard(0)->disk()->first_retained_lsn(), backup.master_record);

  db_.SimulateMediaFailure();
  EXPECT_TRUE(db_.RestoreFromBackup(backup).IsIllegalState());
}

TEST_F(MediaRecoveryTest, RepeatedBackupsUseLatest) {
  Database::BackupImage backups[3];
  for (int round = 0; round < 3; ++round) {
    TxnId t = *db_.Begin();
    ASSERT_TRUE(db_.Set(t, 1, round + 1).ok());
    ASSERT_TRUE(db_.Commit(t).ok());
    backups[round] = *db_.Backup();
  }
  db_.SimulateMediaFailure();
  ASSERT_TRUE(db_.RestoreFromBackup(backups[2]).ok());
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 3);
}

TEST_F(MediaRecoveryTest, OlderBackupAlsoRecoversViaLongerReplay) {
  Database::BackupImage old_backup = *db_.Backup();
  for (int i = 0; i < 20; ++i) {
    TxnId t = *db_.Begin();
    ASSERT_TRUE(db_.Add(t, 1, 1).ok());
    ASSERT_TRUE(db_.Commit(t).ok());
  }
  db_.SimulateMediaFailure();
  ASSERT_TRUE(db_.RestoreFromBackup(old_backup).ok());
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 20);
}

TEST_F(MediaRecoveryTest, CrashAfterMediaRecoveryIsNormalRecovery) {
  Database::BackupImage backup = *db_.Backup();
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Set(t, 1, 7).ok());
  ASSERT_TRUE(db_.Commit(t).ok());
  db_.SimulateMediaFailure();
  ASSERT_TRUE(db_.RestoreFromBackup(backup).ok());
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  // Continue working, then a plain crash.
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t2, 2, 9).ok());
  ASSERT_TRUE(db_.Commit(t2).ok());
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 7);
  EXPECT_EQ(*db_.ReadCommitted(2), 9);
}

}  // namespace
}  // namespace ariesrh
