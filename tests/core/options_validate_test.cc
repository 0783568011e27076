// Options::Validate and its wiring: an invalid configuration makes the
// Database inert (every operation, including StartRecovery, reports the
// validation failure) and Database::Open refuses up front.

#include <gtest/gtest.h>

#include <cstdio>

#include "core/database.h"
#include "table/heap_page.h"
#include "table/table_heap.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

TEST(OptionsValidateTest, DefaultsAreValid) {
  EXPECT_TRUE(Options{}.Validate().ok());
}

TEST(OptionsValidateTest, ZeroBufferPoolPagesRejected) {
  Options options;
  options.buffer_pool_pages = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
}

TEST(OptionsValidateTest, ZeroRecoveryThreadsRejected) {
  Options options;
  options.recovery_threads = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
}

TEST(OptionsValidateTest, FullScanOnlyAppliesToRh) {
  for (DelegationMode mode :
       {DelegationMode::kEager, DelegationMode::kLazyRewrite}) {
    Options options;
    options.delegation_mode = mode;
    options.undo_strategy = UndoStrategy::kFullScan;
    EXPECT_TRUE(options.Validate().IsInvalidArgument())
        << DelegationModeName(mode);
  }
  // Valid: full-scan under kRH (the ablation), clusters everywhere.
  Options rh;
  rh.undo_strategy = UndoStrategy::kFullScan;
  EXPECT_TRUE(rh.Validate().ok());
  Options eager;
  eager.delegation_mode = DelegationMode::kEager;
  EXPECT_TRUE(eager.Validate().ok());
}

TEST(OptionsValidateTest, ZeroShardsRejected) {
  Options options;
  options.num_shards = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
}

TEST(OptionsValidateTest, TooManyShardsRejected) {
  Options options;
  options.num_shards = kMaxShards + 1;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.num_shards = kMaxShards;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(OptionsValidateTest, ShardingRejectsRewritingBaselines) {
  for (DelegationMode mode :
       {DelegationMode::kEager, DelegationMode::kLazyRewrite}) {
    Options options;
    options.num_shards = 2;
    options.delegation_mode = mode;
    EXPECT_TRUE(options.Validate().IsInvalidArgument())
        << DelegationModeName(mode);
  }
  for (DelegationMode mode :
       {DelegationMode::kRH, DelegationMode::kDisabled}) {
    Options options;
    options.num_shards = 2;
    options.delegation_mode = mode;
    EXPECT_TRUE(options.Validate().ok()) << DelegationModeName(mode);
  }
}

TEST(OptionsValidateTest, InvalidShardingMakesDatabaseInert) {
  Options options;
  options.num_shards = 2;
  options.delegation_mode = DelegationMode::kEager;
  Database db(options);
  EXPECT_TRUE(db.Begin().status().IsInvalidArgument());
  EXPECT_TRUE(RestartAndAwait(db).status().IsInvalidArgument());
}

TEST(OptionsValidateTest, ParallelRecoveryThreadsAreValid) {
  Options options;
  options.recovery_threads = 8;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(OptionsValidateTest, InvalidOptionsMakeDatabaseInert) {
  Options options;
  options.recovery_threads = 0;
  Database db(options);
  EXPECT_TRUE(db.Begin().status().IsInvalidArgument());
  EXPECT_TRUE(db.Sync().IsInvalidArgument());
  EXPECT_TRUE(RestartAndAwait(db).status().IsInvalidArgument());
  EXPECT_TRUE(db.ReadCommitted(1).status().IsInvalidArgument());
}

TEST(OptionsValidateTest, OpenValidatesBeforeTouchingTheImage) {
  const std::string path = ::testing::TempDir() + "/validate_open.ariesrh";
  {
    Database db;
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Set(t, 1, 42).ok());
    ASSERT_TRUE(db.Commit(t).ok());
    ASSERT_TRUE(db.Sync().ok());
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  Options bad;
  bad.buffer_pool_pages = 0;
  EXPECT_TRUE(Database::Open(bad, path).status().IsInvalidArgument());
  // The image itself is fine: valid options open (and recover) it.
  Result<Database::OpenResult> good = Database::Open({}, path);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good->db->ReadCommitted(1), 42);
  std::remove(path.c_str());
}

TEST(OptionsValidateTest, GroupCommitRequiresForceCommits) {
  // Group commit exists to make forced commits cheap; combining it with
  // lazy durability (no forces at all) is a contradiction, not a layering.
  Options options;
  options.group_commit = true;
  options.force_commits = false;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.force_commits = true;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(OptionsValidateTest, GroupCommitWindowRequiresGroupCommit) {
  Options options;
  options.group_commit_window_us = 100;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.group_commit = true;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(OptionsValidateTest, CheckpointDaemonRequiresCheckpointableMode) {
  // The daemon takes checkpoints, and checkpoints only drive recovery under
  // kRH/kDisabled; the rewriting baselines recover from the log head.
  for (DelegationMode mode :
       {DelegationMode::kEager, DelegationMode::kLazyRewrite}) {
    Options options;
    options.delegation_mode = mode;
    options.checkpoint_interval_records = 100;
    EXPECT_TRUE(options.Validate().IsInvalidArgument())
        << DelegationModeName(mode);
  }
  Options rh;
  rh.checkpoint_interval_records = 100;
  EXPECT_TRUE(rh.Validate().ok());
  Options disabled;
  disabled.delegation_mode = DelegationMode::kDisabled;
  disabled.checkpoint_interval_ms = 10;
  EXPECT_TRUE(disabled.Validate().ok());
}

TEST(OptionsValidateTest, TableValueCapMustBePositive) {
  Options options;
  options.table_max_value_bytes = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.table_max_value_bytes = 1;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(OptionsValidateTest, TableValueCapMustFitAHeapPage) {
  // A record must fit on one heap page even under a maximum-length key.
  Options options;
  options.table_max_value_bytes =
      table::HeapPage::kPayloadCapacity - table::kMaxKeyBytes;
  EXPECT_TRUE(options.Validate().ok());
  options.table_max_value_bytes += 1;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
}

TEST(OptionsValidateTest, InvalidTableCapMakesDatabaseInert) {
  Options options;
  options.table_max_value_bytes = 0;
  Database db(options);
  EXPECT_TRUE(db.Begin().status().IsInvalidArgument());
  EXPECT_TRUE(db.TableGetCommitted("k").status().IsInvalidArgument());
}

TEST(OptionsValidateTest, AutoArchiveRequiresTheDaemon) {
  Options options;
  options.auto_archive = true;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.checkpoint_interval_ms = 50;
  EXPECT_TRUE(options.Validate().ok());
}

}  // namespace
}  // namespace ariesrh
