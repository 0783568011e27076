// Early lock release on the commit path, single shard: locks release at
// COMMIT-append time (before the group-commit force), acquirers of a
// released lock pick up a commit-ordering dependency, and the crash matrix
// proves the hard invariant — no transaction reports commit before every
// dependency's COMMIT record is durable, and a dependency that loses its
// COMMIT record to a tail discard takes its dependents down with it.

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "core/database.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

// A window far longer than any test: a parked committer stays parked until
// the batch fills (target_batch), the tail is discarded, or the flusher is
// stopped — the three events the tests trigger deliberately. The tests
// never wait the window out.
constexpr uint64_t kParkWindowUs = 5'000'000;

Options ElrOptions(uint64_t target_batch, bool elr = true) {
  Options options;
  options.force_commits = true;
  options.group_commit = true;
  options.group_commit_window_us = kParkWindowUs;
  options.group_commit_target_batch = target_batch;
  options.early_lock_release = elr;
  return options;
}

// Setup commits run with the flusher stopped (FlushWait degrades to a
// direct force) so a solitary committer doesn't sleep out the parking
// window; the test then restarts the flusher with the batch target it
// needs before the interesting transactions start.
void RestartFlusher(Database* db, uint64_t target_batch) {
  LogManager::GroupCommitConfig config;
  config.window_us = kParkWindowUs;
  config.target_batch = target_batch;
  db->shard(0)->log_manager()->StartGroupCommit(config);
}

// Retries a conflicting Set until ELR lets it through (the holder's COMMIT
// append races with this thread on a loaded host). Returns the final
// status; gives up after ~2s so a regression fails rather than hangs.
Status AcquireWithRetry(Database* db, TxnId txn, ObjectId ob, int64_t value) {
  for (int i = 0; i < 400; ++i) {
    Status status = db->Set(txn, ob, value);
    if (!status.IsBusy()) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Status::Busy("lock never released");
}

TEST(ElrCommitTest, LockReleasesAtCommitAppendAndBatchWakesFlusher) {
  // target_batch = 2: the flusher forces as soon as the second committer
  // parks, so the test finishes in milliseconds despite the 5s window —
  // which also exercises the full-batch early wake.
  Database db(ElrOptions(/*target_batch=*/2));
  db.shard(0)->log_manager()->StopGroupCommit();
  TxnId setup = *db.Begin();
  ASSERT_TRUE(db.Set(setup, 1, 100).ok());
  ASSERT_TRUE(db.Commit(setup).ok());
  RestartFlusher(&db, /*target_batch=*/2);

  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t1, 1, 7).ok());
  Status s1;
  std::thread committer([&] { s1 = db.Commit(t1); });

  // t2 takes t1's exclusive lock while t1 is still parked in the window:
  // only ELR makes this possible before t1's commit is durable.
  TxnId t2 = *db.Begin();
  ASSERT_TRUE(AcquireWithRetry(&db, t2, 1, 8).ok());
  // t2's own commit parks second, fills the batch, and both forces ride one
  // device write. t2 may not report before t1's COMMIT is durable — here
  // both become durable together.
  Status s2 = db.Commit(t2);
  committer.join();
  EXPECT_TRUE(s1.ok()) << s1.ToString();
  EXPECT_TRUE(s2.ok()) << s2.ToString();
  EXPECT_EQ(*db.ReadCommitted(1), 8);

  // The commit-latency histogram armed at request and observed at durable
  // ack covers all three commits.
  const obs::Histogram* latency =
      db.metrics()->FindHistogram("ariesrh_commit_latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->Count(), 3u);
}

TEST(ElrCommitTest, WithoutElrTheLockIsHeldThroughTheDurabilityWait) {
  Database db(ElrOptions(/*target_batch=*/8, /*elr=*/false));
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t1, 1, 7).ok());
  Status s1;
  std::thread committer([&] { s1 = db.Commit(t1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // The COMMIT record is long appended, but without ELR the lock stays held
  // until the force completes.
  TxnId t2 = *db.Begin();
  EXPECT_TRUE(db.Set(t2, 1, 8).IsBusy());

  db.shard(0)->log_manager()->StopGroupCommit();
  committer.join();
  // The parked committer was failed by the shutdown, not falsely acked.
  EXPECT_FALSE(s1.ok());
}

// Crash matrix row 1: the dependency loses its COMMIT record to a tail
// discard while the dependent has already acquired its lock. The dependent
// must never report commit; after crash + recovery neither transaction
// survives.
TEST(ElrCommitTest, DiscardTailCascadesAbortToDependents) {
  Database db(ElrOptions(/*target_batch=*/8));
  db.shard(0)->log_manager()->StopGroupCommit();
  TxnId setup = *db.Begin();
  ASSERT_TRUE(db.Set(setup, 1, 100).ok());
  ASSERT_TRUE(db.Commit(setup).ok());
  ASSERT_TRUE(db.Sync().ok());
  RestartFlusher(&db, /*target_batch=*/8);

  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t1, 1, 7).ok());
  Status s1;
  std::thread committer([&] { s1 = db.Commit(t1); });

  TxnId t2 = *db.Begin();
  ASSERT_TRUE(AcquireWithRetry(&db, t2, 1, 8).ok());

  // The crash: everything after the last force — t1's COMMIT, t2's update —
  // evaporates. t1's parked commit fails and cascades to t2.
  db.shard(0)->log_manager()->DiscardTail();
  committer.join();
  EXPECT_FALSE(s1.ok()) << "commit reported durable after its record died";
  EXPECT_FALSE(db.Commit(t2).ok())
      << "dependent committed on a lost dependency";

  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 100);
}

// Crash matrix row 2: crash lands between the dependent's lock acquisition
// and the dependency's force, with BOTH committers parked. Neither may
// report commit, and recovery returns to the pre-transaction state.
TEST(ElrCommitTest, CrashBetweenAcquisitionAndForceCommitsNeither) {
  Database db(ElrOptions(/*target_batch=*/8));
  db.shard(0)->log_manager()->StopGroupCommit();
  TxnId setup = *db.Begin();
  ASSERT_TRUE(db.Set(setup, 1, 100).ok());
  ASSERT_TRUE(db.Set(setup, 2, 200).ok());
  ASSERT_TRUE(db.Commit(setup).ok());
  ASSERT_TRUE(db.Sync().ok());
  RestartFlusher(&db, /*target_batch=*/8);

  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t1, 1, 7).ok());
  Status s1;
  std::thread committer1([&] { s1 = db.Commit(t1); });

  TxnId t2 = *db.Begin();
  ASSERT_TRUE(AcquireWithRetry(&db, t2, 1, 8).ok());
  ASSERT_TRUE(db.Set(t2, 2, 9).ok());
  Status s2;
  std::thread committer2([&] { s2 = db.Commit(t2); });
  // Let t2 reach its durability wait, then fail the flusher under both.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  db.shard(0)->log_manager()->StopGroupCommit();
  committer1.join();
  committer2.join();

  EXPECT_FALSE(s1.ok());
  EXPECT_FALSE(s2.ok())
      << "dependent reported commit before its dependency was durable";

  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 100);
  EXPECT_EQ(*db.ReadCommitted(2), 200);
}

// A dependency chain t1 <- t2 <- t3 across two objects: the tail discard
// dooms all three, in whatever order their commits were parked.
TEST(ElrCommitTest, CascadeRunsDownDependencyChains) {
  Database db(ElrOptions(/*target_batch=*/8));
  db.shard(0)->log_manager()->StopGroupCommit();
  TxnId setup = *db.Begin();
  ASSERT_TRUE(db.Set(setup, 1, 100).ok());
  ASSERT_TRUE(db.Set(setup, 2, 200).ok());
  ASSERT_TRUE(db.Commit(setup).ok());
  ASSERT_TRUE(db.Sync().ok());
  RestartFlusher(&db, /*target_batch=*/8);

  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t1, 1, 7).ok());
  Status s1;
  std::thread committer1([&] { s1 = db.Commit(t1); });

  TxnId t2 = *db.Begin();
  ASSERT_TRUE(AcquireWithRetry(&db, t2, 1, 8).ok());  // depends on t1
  ASSERT_TRUE(db.Set(t2, 2, 9).ok());
  Status s2;
  std::thread committer2([&] { s2 = db.Commit(t2); });

  TxnId t3 = *db.Begin();
  ASSERT_TRUE(AcquireWithRetry(&db, t3, 2, 10).ok());  // depends on t2

  db.shard(0)->log_manager()->DiscardTail();
  committer1.join();
  committer2.join();
  EXPECT_FALSE(s1.ok());
  EXPECT_FALSE(s2.ok());
  EXPECT_FALSE(db.Commit(t3).ok()) << "t3 survived a two-hop cascade";

  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 100);
  EXPECT_EQ(*db.ReadCommitted(2), 200);
}

// ELR options are validated: releasing early into no durability wait would
// make the dependency bookkeeping meaningless.
TEST(ElrCommitTest, ElrRequiresForcedCommits) {
  Options options;
  options.early_lock_release = true;
  options.force_commits = false;
  EXPECT_FALSE(options.Validate().ok());
}

}  // namespace
}  // namespace ariesrh
