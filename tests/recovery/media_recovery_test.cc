// Media recovery: backup + log replay after losing the stable pages
// entirely — the third leg of ARIES recovery, here with delegation in the
// replayed history.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "restart_util.h"
#include "wal/log_manager.h"

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

// Backups taken while two committers run under group commit: the flusher
// appends to the stable log that Backup copies its replay window from, so
// the copy reads through the log's lock (CI runs this under TSan). Each
// window, read again through a LogCursor once the committers are done, is
// byte for byte what its backup holds, and the last backup restores.
TEST(MediaRecoveryConcurrencyTest, BackupsWhileThePrimaryCommits) {
  Options options;
  options.group_commit = true;
  Database db(options);
  constexpr int kCommitters = 2;
  constexpr int kTxnsEach = 4000;  // enough overlap for TSan to see a race
  std::atomic<int> running{kCommitters};
  std::atomic<bool> failed{false};
  std::vector<std::thread> committers;
  for (int w = 0; w < kCommitters; ++w) {
    committers.emplace_back([&, w] {
      for (int i = 0; i < kTxnsEach; ++i) {
        Result<TxnId> t = db.Begin();
        if (!t.ok() || !db.Add(*t, 1 + w, 1).ok() || !db.Commit(*t).ok()) {
          failed = true;
        }
      }
      --running;
    });
  }
  std::vector<Database::BackupImage> backups;
  Status backed_up = Status::OK();
  do {
    Result<Database::BackupImage> backup = db.Backup();
    backed_up = backup.status();
    if (backup.ok()) backups.push_back(std::move(*backup));
  } while (running.load() > 0 && backed_up.ok());
  for (std::thread& committer : committers) committer.join();
  ASSERT_TRUE(backed_up.ok()) << backed_up.ToString();
  EXPECT_FALSE(failed.load());

  for (const Database::BackupImage& backup : backups) {
    LogCursor cursor(*db.shard(0)->log_manager(), backup.window_start,
                     backup.master_record);
    std::vector<std::string> window;
    while (cursor.Step()) window.emplace_back(cursor.image());
    ASSERT_TRUE(cursor.status().ok()) << cursor.status().ToString();
    EXPECT_FALSE(window.empty());
    EXPECT_EQ(window, backup.log_window);
  }

  db.SimulateMediaFailure();
  ASSERT_TRUE(db.RestoreFromBackup(backups.back()).ok());
  ASSERT_TRUE(RestartAndAwait(db).ok());
  for (int w = 0; w < kCommitters; ++w) {
    EXPECT_EQ(*db.ReadCommitted(1 + w), kTxnsEach) << "object " << 1 + w;
  }
}

}  // namespace
}  // namespace ariesrh
