// Group commit, both flavors.
//
// Lazy durability (Options::force_commits = false): durability is deferred
// to the next forced flush; everything else — recovery, delegation,
// ordering — is unchanged, but an acknowledged commit can be lost.
//
// Flusher-based group commit (Options::group_commit = true): a dedicated
// flusher thread batches the forces of concurrent committers, so durability
// at commit-return still holds while N committers share ~1 device force.

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

Options LazyOptions() {
  Options options;
  options.force_commits = false;
  return options;
}

TEST(GroupCommitTest, CommitDoesNotFlush) {
  Database db(LazyOptions());
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 10).ok());
  const uint64_t flushes_before = db.stats().log_flushes;
  ASSERT_TRUE(db.Commit(t).ok());
  EXPECT_EQ(db.stats().log_flushes, flushes_before);
  EXPECT_EQ(db.shard(0)->log_manager()->flushed_lsn(), 0u);
}

TEST(GroupCommitTest, UnsyncedCommitLostToCrash) {
  Database db(LazyOptions());
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 10).ok());
  ASSERT_TRUE(db.Commit(t).ok());  // acknowledged...
  db.SimulateCrash();              // ...but never made durable
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 0);
}

TEST(GroupCommitTest, SyncedCommitSurvives) {
  Database db(LazyOptions());
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 10).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  ASSERT_TRUE(db.Sync().ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 10);
}

TEST(GroupCommitTest, OneSyncCoversManyCommits) {
  Database db(LazyOptions());
  for (int i = 0; i < 50; ++i) {
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Add(t, 1, 1).ok());
    ASSERT_TRUE(db.Commit(t).ok());
  }
  const uint64_t flushes_before = db.stats().log_flushes;
  ASSERT_TRUE(db.Sync().ok());
  EXPECT_EQ(db.stats().log_flushes, flushes_before + 1);  // the group
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 50);
}

TEST(GroupCommitTest, DurabilityIsPrefixOrdered) {
  // A later forced flush (here a checkpoint) makes every earlier commit
  // durable too — the log is a prefix, never a sieve.
  Database db(LazyOptions());
  TxnId a = *db.Begin();
  ASSERT_TRUE(db.Set(a, 1, 10).ok());
  ASSERT_TRUE(db.Commit(a).ok());
  ASSERT_TRUE(db.Checkpoint().ok());  // forces the log through its record
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 10);
}

TEST(GroupCommitTest, StealForcesUpdatesButNotTheCommit) {
  // The WAL rule forces the log only through the *page LSN* of the stolen
  // page — the update record, not the later commit record. An acknowledged
  // but unsynced commit therefore stays volatile even when its page hits
  // disk: after a crash the transaction is a loser and the stolen page is
  // rolled back. (This is exactly why group commit weakens durability.)
  Options options = LazyOptions();
  options.buffer_pool_pages = 1;
  Database db(options);
  TxnId a = *db.Begin();
  ASSERT_TRUE(db.Set(a, 0, 7).ok());  // page 0
  const Lsn update_lsn = db.shard(0)->txn_manager()->Find(a)->last_lsn;
  ASSERT_TRUE(db.Commit(a).ok());
  TxnId b = *db.Begin();
  // Touching another page evicts page 0: WAL forces the log through the
  // update record only.
  ASSERT_TRUE(db.Set(b, kObjectsPerPage, 1).ok());
  EXPECT_GE(db.shard(0)->log_manager()->flushed_lsn(), update_lsn);
  EXPECT_TRUE(db.shard(0)->disk()->HasPage(0));  // STEAL happened

  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(0), 0);  // a's commit never became durable
}

TEST(GroupCommitTest, DelegationUnderGroupCommit) {
  Database db(LazyOptions());
  TxnId t0 = *db.Begin();
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t0, 5, 42).ok());
  ASSERT_TRUE(db.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db.Commit(t1).ok());
  ASSERT_TRUE(db.Sync().ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(5), 42);
}

TEST(GroupCommitTest, FlushCountAdvantageIsMeasurable) {
  auto flushes_for = [](bool force) {
    Options options;
    options.force_commits = force;
    Database db(options);
    for (int i = 0; i < 100; ++i) {
      TxnId t = *db.Begin();
      EXPECT_TRUE(db.Add(t, 1, 1).ok());
      EXPECT_TRUE(db.Commit(t).ok());
    }
    EXPECT_TRUE(db.Sync().ok());
    return db.stats().log_flushes;
  };
  EXPECT_GE(flushes_for(true), 100u);
  EXPECT_LE(flushes_for(false), 2u);
}

Options FlusherOptions() {
  Options options;
  options.force_commits = true;
  options.group_commit = true;
  return options;
}

TEST(GroupCommitFlusherTest, CommitIsDurableAtReturn) {
  // The defining contrast with lazy durability: no Sync, crash immediately
  // after Commit returns, and the value must still survive — the flusher's
  // batched force covered the commit record before Commit unparked.
  Database db(FlusherOptions());
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 10).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 10);
}

TEST(GroupCommitFlusherTest, FlusherRestartsWithRecovery) {
  // The flusher is volatile state: the crash tears it down with the log
  // manager, and recovery's rebuilt engine spawns a fresh one.
  Database db(FlusherOptions());
  ASSERT_TRUE(db.shard(0)->log_manager()->group_commit_running());
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 2, 5).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  ASSERT_TRUE(db.shard(0)->log_manager()->group_commit_running());
  // And the revived flusher still honors the durability contract.
  TxnId u = *db.Begin();
  ASSERT_TRUE(db.Set(u, 3, 7).ok());
  ASSERT_TRUE(db.Commit(u).ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(2), 5);
  EXPECT_EQ(*db.ReadCommitted(3), 7);
}

TEST(GroupCommitFlusherTest, ConcurrentCommittersShareForces) {
  // With a 5ms simulated device force, committers that arrive while a force
  // is in flight pile onto the flusher's queue and share the next one:
  // strictly fewer group forces than commits, visible in the stats.
  Options options = FlusherOptions();
  options.sim_log_force_ns = 5'000'000;
  Database db(options);
  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 4;
  std::vector<std::thread> sessions;
  for (int s = 0; s < kThreads; ++s) {
    sessions.emplace_back([&db, s] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        TxnId t = *db.Begin();
        EXPECT_TRUE(db.Add(t, static_cast<ObjectId>(s), 1).ok());
        EXPECT_TRUE(db.Commit(t).ok());
      }
    });
  }
  for (std::thread& t : sessions) t.join();

  const Stats stats = db.stats();
  EXPECT_EQ(stats.txns_committed, 1u * kThreads * kTxnsPerThread);
  EXPECT_GT(stats.log_group_forces, 0u);
  EXPECT_LT(stats.log_group_forces, stats.txns_committed);
  for (int s = 0; s < kThreads; ++s) {
    EXPECT_EQ(*db.ReadCommitted(static_cast<ObjectId>(s)), kTxnsPerThread);
  }
}

TEST(GroupCommitFlusherTest, BatchedCommitsAllSurviveCrash) {
  // Durability is per-committer even when the force was shared: crash right
  // after the last Commit returns and every transaction must be a winner.
  Options options = FlusherOptions();
  options.sim_log_force_ns = 2'000'000;
  Database db(options);
  constexpr int kThreads = 4;
  std::vector<std::thread> sessions;
  for (int s = 0; s < kThreads; ++s) {
    sessions.emplace_back([&db, s] {
      TxnId t = *db.Begin();
      EXPECT_TRUE(db.Set(t, static_cast<ObjectId>(s), 100 + s).ok());
      EXPECT_TRUE(db.Commit(t).ok());
    });
  }
  for (std::thread& t : sessions) t.join();
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  for (int s = 0; s < kThreads; ++s) {
    EXPECT_EQ(*db.ReadCommitted(static_cast<ObjectId>(s)), 100 + s);
  }
}

}  // namespace
}  // namespace ariesrh
