// Log-shipping standby replication, and why it requires an append-only log.

#include "replication/log_shipping.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "workload/workload.h"

namespace ariesrh::replication {
namespace {

TEST(StandbyReplicaTest, PromoteEmptyStandby) {
  StandbyReplica standby{Options{}};
  Result<std::unique_ptr<Database>> promoted = std::move(standby).Promote();
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(*(*promoted)->ReadCommitted(1), 0);
}

TEST(StandbyReplicaTest, ShipsCommittedWork) {
  Database primary;
  StandbyReplica standby{Options{}};
  TxnId t = *primary.Begin();
  ASSERT_TRUE(primary.Set(t, 1, 10).ok());
  ASSERT_TRUE(primary.Add(t, 2, 5).ok());
  ASSERT_TRUE(primary.Commit(t).ok());
  ASSERT_TRUE(standby.SyncFrom(primary).ok());
  EXPECT_EQ(standby.shipped_through(),
            primary.shard(0)->log_manager()->flushed_lsn());

  Result<std::unique_ptr<Database>> promoted = std::move(standby).Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(*(*promoted)->ReadCommitted(1), 10);
  EXPECT_EQ(*(*promoted)->ReadCommitted(2), 5);
}

TEST(StandbyReplicaTest, InFlightTransactionsResolveAtPromotion) {
  Database primary;
  StandbyReplica standby{Options{}};
  TxnId winner = *primary.Begin();
  ASSERT_TRUE(primary.Set(winner, 1, 10).ok());
  ASSERT_TRUE(primary.Commit(winner).ok());
  TxnId loser = *primary.Begin();
  ASSERT_TRUE(primary.Set(loser, 2, 99).ok());
  ASSERT_TRUE(primary.shard(0)->log_manager()->FlushAll().ok());

  ASSERT_TRUE(standby.SyncFrom(primary).ok());
  // The primary "dies"; promotion rolls the in-flight loser back.
  Result<std::unique_ptr<Database>> promoted = std::move(standby).Promote();
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(*(*promoted)->ReadCommitted(1), 10);
  EXPECT_EQ(*(*promoted)->ReadCommitted(2), 0);
}

// A standby syncs while the primary keeps committing under group commit:
// the flusher thread appends to the stable log that SyncFrom reads, so the
// read goes through the primary's LogManager and its lock (CI runs this
// under TSan). Every sync ships a durable prefix; the last one, taken once
// the committers are done, ships everything they committed.
TEST(StandbyReplicaTest, SyncsWhileThePrimaryCommits) {
  Options options;
  options.group_commit = true;
  Database primary(options);
  StandbyReplica standby{Options{}};
  constexpr int kCommitters = 2;
  constexpr int kTxnsEach = 150;
  std::atomic<int> running{kCommitters};
  std::atomic<bool> failed{false};
  std::vector<std::thread> committers;
  for (int w = 0; w < kCommitters; ++w) {
    committers.emplace_back([&, w] {
      for (int i = 0; i < kTxnsEach; ++i) {
        Result<TxnId> t = primary.Begin();
        if (!t.ok() || !primary.Add(*t, 1 + w, 1).ok() ||
            !primary.Commit(*t).ok()) {
          failed = true;
        }
      }
      --running;
    });
  }
  int syncs = 0;
  Status synced = Status::OK();
  while (running.load() > 0 && synced.ok()) {
    synced = standby.SyncFrom(primary);
    ++syncs;
  }
  for (std::thread& committer : committers) committer.join();
  EXPECT_TRUE(synced.ok()) << synced.ToString();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(syncs, 0);

  ASSERT_TRUE(standby.SyncFrom(primary).ok());
  EXPECT_EQ(standby.shipped_through(),
            primary.shard(0)->log_manager()->flushed_lsn());
  Result<std::unique_ptr<Database>> promoted = std::move(standby).Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  for (int w = 0; w < kCommitters; ++w) {
    EXPECT_EQ(*(*promoted)->ReadCommitted(1 + w), kTxnsEach) << "object "
                                                             << 1 + w;
  }
}

TEST(StandbyReplicaTest, IncrementalSyncsAccumulate) {
  Database primary;
  StandbyReplica standby{Options{}};
  for (int round = 0; round < 5; ++round) {
    TxnId t = *primary.Begin();
    ASSERT_TRUE(primary.Add(t, 1, 1).ok());
    ASSERT_TRUE(primary.Commit(t).ok());
    ASSERT_TRUE(standby.SyncFrom(primary).ok());
  }
  ASSERT_TRUE(standby.SyncFrom(primary).ok());  // idle sync: no-op
  Result<std::unique_ptr<Database>> promoted = std::move(standby).Promote();
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(*(*promoted)->ReadCommitted(1), 5);
}

TEST(StandbyReplicaTest, DelegationShipsTransparently) {
  Database primary;
  StandbyReplica standby{Options{}};
  TxnId t0 = *primary.Begin();
  TxnId t1 = *primary.Begin();
  ASSERT_TRUE(primary.Set(t0, 5, 42).ok());
  ASSERT_TRUE(primary.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(primary.Commit(t1).ok());  // delegatee commits
  ASSERT_TRUE(primary.Commit(t0).ok());
  ASSERT_TRUE(standby.SyncFrom(primary).ok());
  Result<std::unique_ptr<Database>> promoted = std::move(standby).Promote();
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(*(*promoted)->ReadCommitted(5), 42);
}

TEST(StandbyReplicaTest, SeededStandbyReplaysOnlySuffix) {
  Database primary;
  for (int i = 0; i < 20; ++i) {
    TxnId t = *primary.Begin();
    ASSERT_TRUE(primary.Add(t, 1, 1).ok());
    ASSERT_TRUE(primary.Commit(t).ok());
  }
  Database::BackupImage backup = *primary.Backup();

  TxnId late = *primary.Begin();
  ASSERT_TRUE(primary.Set(late, 2, 7).ok());
  ASSERT_TRUE(primary.Commit(late).ok());

  StandbyReplica standby{Options{}};
  ASSERT_TRUE(standby.SeedFromBackup(backup).ok());
  ASSERT_TRUE(standby.SyncFrom(primary).ok());
  Result<std::unique_ptr<Database>> promoted = std::move(standby).Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(*(*promoted)->ReadCommitted(1), 20);
  EXPECT_EQ(*(*promoted)->ReadCommitted(2), 7);
}

TEST(StandbyReplicaTest, SeedAfterSyncRejected) {
  Database primary;
  TxnId t = *primary.Begin();
  ASSERT_TRUE(primary.Add(t, 1, 1).ok());
  ASSERT_TRUE(primary.Commit(t).ok());
  Database::BackupImage backup = *primary.Backup();
  StandbyReplica standby{Options{}};
  ASSERT_TRUE(standby.SyncFrom(primary).ok());
  EXPECT_TRUE(standby.SeedFromBackup(backup).IsIllegalState());
}

TEST(StandbyReplicaTest, ArchivedPrimaryRequiresReseed) {
  Database primary;
  StandbyReplica standby{Options{}};  // never synced
  for (int i = 0; i < 10; ++i) {
    TxnId t = *primary.Begin();
    ASSERT_TRUE(primary.Add(t, 1, 1).ok());
    ASSERT_TRUE(primary.Commit(t).ok());
  }
  ASSERT_TRUE(primary.shard(0)->buffer_pool()->FlushAll().ok());
  ASSERT_TRUE(primary.Checkpoint().ok());
  ASSERT_TRUE(primary.ArchiveLog().ok());
  EXPECT_TRUE(standby.SyncFrom(primary).IsIllegalState());
}

TEST(StandbyReplicaTest, RetentionPinSurvivesContinuousArchiving) {
  // Continuous archiving (what the checkpoint daemon automates) stays
  // compatible with ship-once replication as long as each archive run is
  // pinned at the standby's RetentionPin.
  Database primary;
  StandbyReplica standby{Options{}};
  for (int round = 0; round < 5; ++round) {
    TxnId t = *primary.Begin();
    ASSERT_TRUE(primary.Add(t, 1, 1).ok());
    ASSERT_TRUE(primary.Commit(t).ok());
    ASSERT_TRUE(primary.shard(0)->buffer_pool()->FlushAll().ok());
    ASSERT_TRUE(primary.Checkpoint().ok());
    ASSERT_TRUE(primary.ArchiveLog(standby.RetentionPin()).ok());
    ASSERT_TRUE(standby.SyncFrom(primary).ok());
  }
  Result<std::unique_ptr<Database>> promoted = std::move(standby).Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(*(*promoted)->ReadCommitted(1), 5);
}

TEST(StandbyReplicaTest, ArchivingPastTheStandbyForcesReseed) {
  // The counterpart: an unpinned archive run on the primary reclaims
  // records the standby has not shipped yet, and the next sync must refuse
  // rather than silently skip them.
  Database primary;
  StandbyReplica standby{Options{}};
  TxnId t = *primary.Begin();
  ASSERT_TRUE(primary.Add(t, 1, 1).ok());
  ASSERT_TRUE(primary.Commit(t).ok());
  ASSERT_TRUE(primary.shard(0)->log_manager()->FlushAll().ok());
  ASSERT_TRUE(standby.SyncFrom(primary).ok());

  for (int i = 0; i < 10; ++i) {
    TxnId more = *primary.Begin();
    ASSERT_TRUE(primary.Add(more, 1, 1).ok());
    ASSERT_TRUE(primary.Commit(more).ok());
  }
  ASSERT_TRUE(primary.shard(0)->buffer_pool()->FlushAll().ok());
  ASSERT_TRUE(primary.Checkpoint().ok());
  ASSERT_TRUE(primary.ArchiveLog().ok());  // no pin
  ASSERT_GT(primary.shard(0)->disk()->first_retained_lsn(),
            standby.shipped_through() + 1);
  EXPECT_TRUE(standby.SyncFrom(primary).IsIllegalState());
}

TEST(StandbyReplicaTest, RandomWorkloadPromotionMatchesOracle) {
  Database primary;
  workload::WorkloadOptions options;
  options.seed = 2718;
  workload::WorkloadDriver driver(&primary, options);
  StandbyReplica standby{Options{}};
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(driver.Run(150).ok());
    ASSERT_TRUE(primary.shard(0)->log_manager()->FlushAll().ok());
    ASSERT_TRUE(standby.SyncFrom(primary).ok());
  }
  // The primary vanishes; the standby must agree with the oracle's view of
  // the crash (losers = whatever was unresolved).
  driver.CrashOnly();
  Result<std::unique_ptr<Database>> promoted = std::move(standby).Promote();
  ASSERT_TRUE(promoted.ok());
  for (const auto& [ob, expected] : driver.oracle().ExpectedValues()) {
    EXPECT_EQ(*(*promoted)->ReadCommitted(ob), expected) << "object " << ob;
  }
}

TEST(StandbyReplicaTest, RewritingBaselinesBreakShipOnceReplication) {
  // The demonstration the module header promises: under the eager
  // baseline, a delegation rewrites records the standby already shipped;
  // ship-once replication never re-reads them, so the promoted standby
  // diverges from the primary. Under RH the identical history ships
  // perfectly (the log is append-only).
  for (DelegationMode mode : {DelegationMode::kRH, DelegationMode::kEager}) {
    Options options;
    options.delegation_mode = mode;
    Database primary(options);
    StandbyReplica standby{options};

    TxnId t0 = *primary.Begin();
    TxnId t1 = *primary.Begin();
    ASSERT_TRUE(primary.Set(t0, 5, 42).ok());
    ASSERT_TRUE(primary.shard(0)->log_manager()->FlushAll().ok());
    ASSERT_TRUE(standby.SyncFrom(primary).ok());  // update record shipped

    // The delegation: RH appends one record; eager rewrites the already-
    // shipped update in place (invisible to ship-once replication).
    ASSERT_TRUE(primary.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
    ASSERT_TRUE(primary.Commit(t1).ok());
    ASSERT_TRUE(primary.Commit(t0).ok());
    ASSERT_TRUE(standby.SyncFrom(primary).ok());

    Result<std::unique_ptr<Database>> promoted =
        std::move(standby).Promote();
    ASSERT_TRUE(promoted.ok());
    const int64_t value = *(*promoted)->ReadCommitted(5);
    if (mode == DelegationMode::kRH) {
      EXPECT_EQ(value, 42) << "RH standby must match the primary";
    } else {
      // Eager: the stale shipped record still says t0 wrote it, and the
      // standby saw no delegate record at all — t1's commit means nothing
      // for it... the update's fate follows t0 instead. Both commit here,
      // so the *state* happens to match; the divergence shows in the
      // responsibility interpretation. Make it bite: re-run with t0
      // aborting below.
      EXPECT_EQ(value, 42);
    }
  }

  // The biting version: invoker aborts, delegatee commits.
  for (DelegationMode mode : {DelegationMode::kRH, DelegationMode::kEager}) {
    Options options;
    options.delegation_mode = mode;
    Database primary(options);
    StandbyReplica standby{options};

    TxnId t0 = *primary.Begin();
    TxnId t1 = *primary.Begin();
    ASSERT_TRUE(primary.Set(t0, 5, 42).ok());
    ASSERT_TRUE(primary.shard(0)->log_manager()->FlushAll().ok());
    ASSERT_TRUE(standby.SyncFrom(primary).ok());  // pre-delegation ship

    ASSERT_TRUE(primary.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
    ASSERT_TRUE(primary.Commit(t1).ok());  // responsible party commits
    ASSERT_TRUE(primary.shard(0)->log_manager()->FlushAll().ok());
    ASSERT_TRUE(standby.SyncFrom(primary).ok());

    Result<std::unique_ptr<Database>> promoted =
        std::move(standby).Promote();
    ASSERT_TRUE(promoted.ok());
    const int64_t value = *(*promoted)->ReadCommitted(5);
    const int64_t primary_view = 42;  // t1 committed the delegated update
    if (mode == DelegationMode::kRH) {
      EXPECT_EQ(value, primary_view);
    } else {
      // The standby's stale record still belongs to t0 (a loser at
      // promotion): the update is wrongly rolled back. Divergence.
      EXPECT_NE(value, primary_view)
          << "expected ship-once divergence under eager rewriting";
    }
  }
}

}  // namespace
}  // namespace ariesrh::replication
