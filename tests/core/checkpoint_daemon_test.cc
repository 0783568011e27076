// The background checkpoint/log-retention daemon: triggers, the
// deterministic RunOnce path, auto-archiving, and its lifecycle across the
// crash/recover harness.

#include "core/checkpoint_daemon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <functional>
#include <map>
#include <thread>

#include "core/database.h"
#include "obs/metrics.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

// Effectively "never fires on its own": RunOnce stays the only trigger.
constexpr uint64_t kNeverRecords = 1ull << 40;

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

void CommitWork(Database* db, int txns, ObjectId ob = 7) {
  for (int i = 0; i < txns; ++i) {
    TxnId t = *db->Begin();
    ASSERT_TRUE(db->Add(t, ob, 1).ok());
    ASSERT_TRUE(db->Commit(t).ok());
  }
}

TEST(CheckpointDaemonTest, NotConfiguredByDefault) {
  Database db;
  EXPECT_EQ(db.shard(0)->checkpoint_daemon(), nullptr);
}

TEST(CheckpointDaemonTest, RecordGrowthTriggersCheckpoints) {
  Options options;
  options.checkpoint_interval_records = 8;
  Database db(options);
  ASSERT_NE(db.shard(0)->checkpoint_daemon(), nullptr);
  EXPECT_TRUE(db.shard(0)->checkpoint_daemon()->digest().running);

  CommitWork(&db, 10);  // ~30 records, several intervals past the trigger
  ASSERT_TRUE(WaitFor([&db] {
    return db.shard(0)->checkpoint_daemon()->digest().checkpoints >= 1;
  })) << db.shard(0)->checkpoint_daemon()->digest().ToString();
  EXPECT_NE(db.shard(0)->disk()->master_record(), 0u);
  EXPECT_GE(db.stats().checkpoints_taken.value(), 1u);
  // The background checkpoint is a real recovery anchor.
  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_NE(outcome->checkpoint_used, 0u);
  EXPECT_EQ(*db.ReadCommitted(7), 10);
}

TEST(CheckpointDaemonTest, ElapsedTimeTriggersCheckpoints) {
  Options options;
  options.checkpoint_interval_ms = 5;
  Database db(options);
  CommitWork(&db, 1);
  ASSERT_TRUE(WaitFor([&db] {
    return db.shard(0)->checkpoint_daemon()->digest().checkpoints >= 1;
  }));
  EXPECT_NE(db.shard(0)->disk()->master_record(), 0u);
}

TEST(CheckpointDaemonTest, RunOnceIsDeterministic) {
  Options options;
  options.checkpoint_interval_records = kNeverRecords;
  Database db(options);
  CommitWork(&db, 3);
  ASSERT_EQ(db.shard(0)->checkpoint_daemon()->digest().checkpoints, 0u);

  ASSERT_TRUE(db.shard(0)->checkpoint_daemon()->RunOnce().ok());
  CheckpointDaemon::Digest digest = db.shard(0)->checkpoint_daemon()->digest();
  EXPECT_EQ(digest.checkpoints, 1u);
  EXPECT_EQ(digest.last_checkpoint_lsn, db.shard(0)->disk()->master_record());
  EXPECT_TRUE(digest.last_error.empty());
  EXPECT_EQ(db.stats().checkpoints_taken.value(), 1u);
}

TEST(CheckpointDaemonTest, AutoArchiveReclaimsThePrefix) {
  Options options;
  options.checkpoint_interval_records = kNeverRecords;
  options.auto_archive = true;
  Database db(options);
  CommitWork(&db, 10);
  ASSERT_TRUE(db.shard(0)->buffer_pool()->FlushAll().ok());
  // First cycle anchors a checkpoint; the second can reclaim everything the
  // first one made obsolete.
  ASSERT_TRUE(db.shard(0)->checkpoint_daemon()->RunOnce().ok());
  CommitWork(&db, 5);
  ASSERT_TRUE(db.shard(0)->buffer_pool()->FlushAll().ok());
  ASSERT_TRUE(db.shard(0)->checkpoint_daemon()->RunOnce().ok());

  CheckpointDaemon::Digest digest = db.shard(0)->checkpoint_daemon()->digest();
  EXPECT_EQ(digest.checkpoints, 2u);
  EXPECT_EQ(digest.archive_runs, 2u);
  EXPECT_GT(digest.records_archived, 0u);
  EXPECT_GT(db.shard(0)->disk()->first_retained_lsn(), kFirstLsn);
  EXPECT_EQ(db.stats().archived_records.value(), digest.records_archived);
  // Recovery from the shortened log still reproduces the state.
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(7), 15);
}

// Table writes dirty heap pages that no eviction ever writes back; the
// checkpoints' penultimate-checkpoint write-back does, so each daemon cycle
// (checkpoint, then ArchiveLog) keeps the live log within about two cycles'
// worth of records instead of everything since the first table write.
TEST(CheckpointDaemonTest, AutoArchiveBoundsTheLiveLogUnderTableWrites) {
  Options options;
  options.checkpoint_interval_records = kNeverRecords;
  options.auto_archive = true;
  Database db(options);
  obs::Gauge* live =
      db.observability()->registry.GetGauge("ariesrh_log_live_records");
  constexpr int kCycles = 20;
  constexpr int kTxnsPerCycle = 25;
  std::map<std::string, std::string> committed;
  int64_t max_live = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (int i = 0; i < kTxnsPerCycle; ++i) {
      TxnId t = *db.Begin();
      const int n = cycle * kTxnsPerCycle + i;
      const std::string key = "key" + std::to_string(n % 97);
      const std::string value(64, static_cast<char>('a' + n % 26));
      ASSERT_TRUE(db.TablePut(t, key, value).ok());
      ASSERT_TRUE(db.Commit(t).ok());
      committed[key] = value;
    }
    ASSERT_TRUE(db.shard(0)->checkpoint_daemon()->RunOnce().ok());
    if (cycle >= 2) max_live = std::max(max_live, live->Value());
  }
  // Each cycle appends BEGIN, TBL_*, COMMIT and END per transaction plus
  // the checkpoint pair.
  const int64_t per_cycle = kTxnsPerCycle * 4 + 2;
  EXPECT_GT(static_cast<int64_t>(db.shard(0)->log_manager()->end_lsn()),
            kCycles * per_cycle - 1);
  EXPECT_GT(max_live, 0);
  EXPECT_LE(max_live, 3 * per_cycle);
  EXPECT_GT(db.shard(0)->checkpoint_daemon()->digest().records_archived,
            static_cast<uint64_t>((kCycles - 3) * per_cycle));

  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  for (const auto& [key, value] : committed) {
    EXPECT_EQ(*db.TableGetCommitted(key), value) << key;
  }
}

TEST(CheckpointDaemonTest, ContinuousOperationUnderLoad) {
  Options options;
  options.checkpoint_interval_records = 16;
  options.auto_archive = true;
  Database db(options);
  // The trigger is log growth since the last checkpoint, so the load must
  // outlast the daemon's first cycle: keep committing until it has
  // demonstrably cycled twice and reclaimed something.
  int committed = 0;
  const bool cycled = WaitFor([&] {
    CommitWork(&db, 5);
    committed += 5;
    EXPECT_TRUE(db.shard(0)->buffer_pool()->FlushAll().ok());
    const CheckpointDaemon::Digest d =
        db.shard(0)->checkpoint_daemon()->digest();
    return d.checkpoints >= 2 && d.records_archived > 0;
  });
  ASSERT_TRUE(cycled) << db.shard(0)->checkpoint_daemon()->digest().ToString();
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(7), committed);
}

TEST(CheckpointDaemonTest, CrashStopsAndRecoverRestartsTheDaemon) {
  Options options;
  options.checkpoint_interval_records = 8;
  Database db(options);
  CommitWork(&db, 5);

  db.SimulateCrash();
  // The daemon is volatile state: gone with the crash, no background
  // checkpoints against a crashed engine.
  EXPECT_EQ(db.shard(0)->checkpoint_daemon(), nullptr);
  ASSERT_TRUE(RestartAndAwait(db).ok());
  ASSERT_NE(db.shard(0)->checkpoint_daemon(), nullptr);
  EXPECT_TRUE(db.shard(0)->checkpoint_daemon()->digest().running);

  CommitWork(&db, 10);
  ASSERT_TRUE(WaitFor([&db] {
    return db.shard(0)->checkpoint_daemon()->digest().checkpoints >= 1;
  }));
}

TEST(CheckpointDaemonTest, StopIsIdempotent) {
  Options options;
  options.checkpoint_interval_ms = 2;
  Database db(options);
  CommitWork(&db, 2);
  db.shard(0)->checkpoint_daemon()->Stop();
  db.shard(0)->checkpoint_daemon()->Stop();
  EXPECT_FALSE(db.shard(0)->checkpoint_daemon()->digest().running);
  const uint64_t settled =
      db.shard(0)->checkpoint_daemon()->digest().checkpoints;
  CommitWork(&db, 5);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(db.shard(0)->checkpoint_daemon()->digest().checkpoints, settled);
  // A stopped daemon can be started again.
  db.shard(0)->checkpoint_daemon()->Start();
  EXPECT_TRUE(db.shard(0)->checkpoint_daemon()->digest().running);
}

TEST(CheckpointDaemonTest, DigestToStringIsReadable) {
  Options options;
  options.checkpoint_interval_records = kNeverRecords;
  options.auto_archive = true;
  Database db(options);
  CommitWork(&db, 2);
  ASSERT_TRUE(db.shard(0)->checkpoint_daemon()->RunOnce().ok());
  const std::string digest =
      db.shard(0)->checkpoint_daemon()->digest().ToString();
  EXPECT_NE(digest.find("checkpoint"), std::string::npos) << digest;
  EXPECT_NE(digest.find("archive"), std::string::npos) << digest;
}

}  // namespace
}  // namespace ariesrh
