// Normal-processing tests against the Database facade (no crashes here;
// recovery has its own suites).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

class TxnManagerTest : public ::testing::Test {
 protected:
  Database db_;
};

TEST_F(TxnManagerTest, BeginAssignsFreshIds) {
  TxnId a = *db_.Begin();
  TxnId b = *db_.Begin();
  EXPECT_NE(a, kInvalidTxn);
  EXPECT_NE(a, b);
}

TEST_F(TxnManagerTest, ReadYourOwnWrite) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Set(t, 5, 42).ok());
  EXPECT_EQ(*db_.Read(t, 5), 42);
  ASSERT_TRUE(db_.Add(t, 5, 8).ok());
  EXPECT_EQ(*db_.Read(t, 5), 50);
}

TEST_F(TxnManagerTest, FreshObjectReadsZero) {
  TxnId t = *db_.Begin();
  EXPECT_EQ(*db_.Read(t, 1234), 0);
}

TEST_F(TxnManagerTest, CommitMakesValuesVisible) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Set(t, 7, 99).ok());
  ASSERT_TRUE(db_.Commit(t).ok());
  EXPECT_EQ(*db_.ReadCommitted(7), 99);
}

TEST_F(TxnManagerTest, AbortRestoresPriorValues) {
  TxnId t1 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 7, 10).ok());
  ASSERT_TRUE(db_.Commit(t1).ok());

  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t2, 7, 20).ok());
  ASSERT_TRUE(db_.Add(t2, 8, 5).ok());
  ASSERT_TRUE(db_.Abort(t2).ok());
  EXPECT_EQ(*db_.ReadCommitted(7), 10);
  EXPECT_EQ(*db_.ReadCommitted(8), 0);
}

TEST_F(TxnManagerTest, AbortUndoesMultipleUpdatesInReverse) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Set(t, 1, 100).ok());
  ASSERT_TRUE(db_.Set(t, 1, 200).ok());
  ASSERT_TRUE(db_.Set(t, 1, 300).ok());
  ASSERT_TRUE(db_.Abort(t).ok());
  EXPECT_EQ(*db_.ReadCommitted(1), 0);
}

// Run at one shard and at two: the facade's routes answer for terminated
// transactions at every shard count.
class TerminatedTxnTest : public ::testing::TestWithParam<size_t> {
 protected:
  static Options WithShards(size_t shards) {
    Options options;
    options.num_shards = shards;
    return options;
  }
  Database db_{WithShards(GetParam())};
};

INSTANTIATE_TEST_SUITE_P(Shards, TerminatedTxnTest, ::testing::Values(1u, 2u),
                         [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

TEST_P(TerminatedTxnTest, OperationsOnTerminatedTxnFail) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Commit(t).ok());
  EXPECT_TRUE(db_.Set(t, 1, 1).IsIllegalState());
  EXPECT_TRUE(db_.Commit(t).IsIllegalState());
  EXPECT_TRUE(db_.Abort(t).IsIllegalState());
}

TEST_F(TxnManagerTest, OperationsOnUnknownTxnFail) {
  EXPECT_TRUE(db_.Set(999, 1, 1).IsNotFound());
  EXPECT_TRUE(db_.Commit(999).IsNotFound());
}

TEST_F(TxnManagerTest, WriteConflictReturnsBusy) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 5, 1).ok());
  EXPECT_TRUE(db_.Set(t2, 5, 2).IsBusy());
  EXPECT_TRUE(db_.Read(t2, 5).status().IsBusy());
  ASSERT_TRUE(db_.Commit(t1).ok());
  EXPECT_TRUE(db_.Set(t2, 5, 2).ok());  // lock released by commit
}

TEST_F(TxnManagerTest, ConcurrentIncrementsCommute) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Add(t1, 5, 10).ok());
  ASSERT_TRUE(db_.Add(t2, 5, 7).ok());
  ASSERT_TRUE(db_.Add(t1, 5, 1).ok());
  ASSERT_TRUE(db_.Commit(t1).ok());
  ASSERT_TRUE(db_.Commit(t2).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 18);
}

TEST_F(TxnManagerTest, ConcurrentIncrementAbortRemovesOnlyOwnDelta) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Add(t1, 5, 10).ok());
  ASSERT_TRUE(db_.Add(t2, 5, 7).ok());
  ASSERT_TRUE(db_.Abort(t2).ok());
  ASSERT_TRUE(db_.Commit(t1).ok());
  EXPECT_EQ(*db_.ReadCommitted(5), 10);
}

TEST_F(TxnManagerTest, PermitAllowsReadPastExclusiveLock) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t1, 5, 42).ok());
  EXPECT_TRUE(db_.Read(t2, 5).status().IsBusy());
  ASSERT_TRUE(db_.Permit(t1, t2, 5).ok());
  EXPECT_EQ(*db_.Read(t2, 5), 42);  // sees the uncommitted value
  ASSERT_TRUE(db_.Commit(t1).ok());
  ASSERT_TRUE(db_.Commit(t2).ok());
}

TEST_F(TxnManagerTest, CommitDependencyGatesCommit) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.FormDependency(DependencyType::kCommit, t2, t1).ok());
  EXPECT_TRUE(db_.Commit(t2).IsBusy());
  ASSERT_TRUE(db_.Commit(t1).ok());
  EXPECT_TRUE(db_.Commit(t2).ok());
}

TEST_F(TxnManagerTest, CommitDependencySatisfiedByAbortToo) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.FormDependency(DependencyType::kCommit, t2, t1).ok());
  ASSERT_TRUE(db_.Abort(t1).ok());
  EXPECT_TRUE(db_.Commit(t2).ok());  // plain commit dep: either outcome
}

TEST_F(TxnManagerTest, StrongCommitDependencyAbortsWithPrerequisite) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t2, 9, 1).ok());
  ASSERT_TRUE(db_.FormDependency(DependencyType::kStrongCommit, t2, t1).ok());
  ASSERT_TRUE(db_.Abort(t1).ok());
  // The cascade already aborted t2.
  EXPECT_TRUE(db_.Commit(t2).IsIllegalState());
  EXPECT_EQ(*db_.ReadCommitted(9), 0);
}

TEST_F(TxnManagerTest, AbortDependencyCascades) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  TxnId t3 = *db_.Begin();
  ASSERT_TRUE(db_.Set(t2, 9, 5).ok());
  ASSERT_TRUE(db_.Set(t3, 10, 5).ok());
  ASSERT_TRUE(db_.FormDependency(DependencyType::kAbort, t2, t1).ok());
  ASSERT_TRUE(db_.FormDependency(DependencyType::kAbort, t3, t2).ok());
  ASSERT_TRUE(db_.Abort(t1).ok());
  EXPECT_EQ(db_.shard(0)->txn_manager()->Find(t2)->state, TxnState::kAborted);
  EXPECT_EQ(db_.shard(0)->txn_manager()->Find(t3)->state, TxnState::kAborted);
  EXPECT_EQ(*db_.ReadCommitted(9), 0);
  EXPECT_EQ(*db_.ReadCommitted(10), 0);
}

TEST_F(TxnManagerTest, AbortDependencyDoesNotFireOnCommit) {
  TxnId t1 = *db_.Begin();
  TxnId t2 = *db_.Begin();
  ASSERT_TRUE(db_.FormDependency(DependencyType::kAbort, t2, t1).ok());
  ASSERT_TRUE(db_.Commit(t1).ok());
  EXPECT_EQ(db_.shard(0)->txn_manager()->Find(t2)->state, TxnState::kActive);
  EXPECT_TRUE(db_.Commit(t2).ok());
}

TEST_F(TxnManagerTest, CommitForcesLogToDisk) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Set(t, 5, 1).ok());
  const Lsn before = db_.shard(0)->log_manager()->flushed_lsn();
  ASSERT_TRUE(db_.Commit(t).ok());
  EXPECT_GT(db_.shard(0)->log_manager()->flushed_lsn(), before);
}

TEST_F(TxnManagerTest, ScopeTrackingFollowsUpdates) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Set(t, 5, 1).ok());
  ASSERT_TRUE(db_.Set(t, 5, 2).ok());
  const Transaction* tx = db_.shard(0)->txn_manager()->Find(t);
  ASSERT_NE(tx, nullptr);
  ASSERT_TRUE(tx->IsResponsibleFor(5));
  const auto& scopes = tx->ob_list.at(5).scopes;
  ASSERT_EQ(scopes.size(), 1u);
  EXPECT_EQ(scopes[0].invoker, t);
  EXPECT_EQ(scopes[0].last - scopes[0].first, 1u);  // two adjacent updates
}

TEST_F(TxnManagerTest, ReapTerminatedDropsControlBlocks) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.Commit(t).ok());
  ASSERT_NE(db_.shard(0)->txn_manager()->Find(t), nullptr);
  // Checkpoints reap: the first one's CKPT_END force makes the END record
  // durable, the second drops the control block.
  ASSERT_TRUE(db_.Checkpoint().ok());
  ASSERT_TRUE(db_.Checkpoint().ok());
  EXPECT_EQ(db_.shard(0)->txn_manager()->Find(t), nullptr);
  EXPECT_FALSE(db_.IsActive(t));
}

// Checkpoints reap terminated transactions: the first checkpoint's CKPT_END
// force makes the END records before it durable, the second reaps them. A
// reaped id reads as "not active", never as an error, and keeps its outcome
// for dependencies formed after the reap — on one shard (the transaction
// table answers) and on two (the facade's routes answer).
class ReapedOutcomeTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Shards, ReapedOutcomeTest, ::testing::Values(1u, 2u),
                         [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

TEST_P(ReapedOutcomeTest, ReapedIdsKeepTheirOutcome) {
  Options options;
  options.num_shards = GetParam();
  Database db(options);
  const TxnId committed = *db.Begin();
  ASSERT_TRUE(db.Set(committed, 1, 1).ok());
  ASSERT_TRUE(db.Commit(committed).ok());
  const TxnId aborted = *db.Begin();
  ASSERT_TRUE(db.Set(aborted, 2, 2).ok());
  ASSERT_TRUE(db.Abort(aborted).ok());
  auto reaped = [&](TxnId t) {
    for (size_t i = 0; i < db.num_shards(); ++i) {
      if (db.shard(i)->txn_manager()->Find(t) != nullptr) return false;
    }
    return true;
  };
  // Their END records are not durable at the first snapshot.
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_FALSE(reaped(committed));
  EXPECT_FALSE(reaped(aborted));
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_TRUE(reaped(committed));
  ASSERT_TRUE(reaped(aborted));
  EXPECT_FALSE(db.IsActive(committed));
  EXPECT_FALSE(db.IsActive(aborted));

  // Any dependency on the reaped committed one, and a commit dependency on
  // the reaped aborted one, resolve at once and leave the dependent live.
  const TxnId live = *db.Begin();
  ASSERT_TRUE(db.Set(live, 3, 3).ok());
  for (DependencyType type :
       {DependencyType::kCommit, DependencyType::kStrongCommit,
        DependencyType::kAbort}) {
    EXPECT_TRUE(db.FormDependency(type, live, committed).ok());
  }
  EXPECT_TRUE(db.FormDependency(DependencyType::kCommit, live, aborted).ok());
  EXPECT_TRUE(db.IsActive(live));
  ASSERT_TRUE(db.Commit(live).ok());

  // An abort or strong-commit dependency on the reaped aborted one aborts
  // the dependent, exactly as before the reap.
  for (DependencyType type :
       {DependencyType::kAbort, DependencyType::kStrongCommit}) {
    const TxnId doomed = *db.Begin();
    ASSERT_TRUE(db.Set(doomed, 4, 7).ok());
    EXPECT_TRUE(db.FormDependency(type, doomed, aborted).ok());
    EXPECT_FALSE(db.IsActive(doomed));
    EXPECT_FALSE(db.Commit(doomed).ok());
    EXPECT_EQ(*db.ReadCommitted(4), 0);
  }

  // An id never handed out is still unknown.
  const TxnId other = *db.Begin();
  EXPECT_TRUE(db.FormDependency(DependencyType::kCommit, other, other + 100)
                  .IsNotFound());
  ASSERT_TRUE(db.Abort(other).ok());

  // After a restart the earlier ids are unknown, reaped or not.
  ASSERT_TRUE(db.Sync().ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  const TxnId fresh = *db.Begin();
  for (TxnId t : {committed, aborted}) {
    EXPECT_TRUE(
        db.FormDependency(DependencyType::kAbort, fresh, t).IsNotFound());
  }
  EXPECT_TRUE(db.IsActive(fresh));
}

TEST_F(TxnManagerTest, CheckpointReapsTerminatedTransactions) {
  std::vector<TxnId> done;
  for (int i = 0; i < 20; ++i) {
    TxnId t = *db_.Begin();
    ASSERT_TRUE(db_.Add(t, 4, 1).ok());
    ASSERT_TRUE(i % 4 == 3 ? db_.Abort(t).ok() : db_.Commit(t).ok());
    done.push_back(t);
  }
  TxnId live = *db_.Begin();
  ASSERT_TRUE(db_.Add(live, 4, 1).ok());
  // The first checkpoint's CKPT_END force makes every END before it
  // durable; the second reaps them all.
  ASSERT_TRUE(db_.Checkpoint().ok());
  ASSERT_TRUE(db_.Checkpoint().ok());
  const std::map<TxnId, Transaction> left =
      db_.shard(0)->txn_manager()->SnapshotTransactions();
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left.begin()->first, live);
  for (TxnId t : done) EXPECT_EQ(db_.shard(0)->txn_manager()->Find(t), nullptr);
  ASSERT_TRUE(db_.Commit(live).ok());
  EXPECT_EQ(*db_.ReadCommitted(4), 16);
}

// The reaper runs under live sessions: every transaction is published for
// the other sessions to delegate into while its own session commits or
// aborts it, and checkpoints keep reaping the finished ones. A delegation
// lands before its target terminates or is refused; no control block is
// freed under a caller, and a restart reproduces the committed state.
TEST_F(TxnManagerTest, ReapingBesideDelegationsToOtherSessions) {
  constexpr int kSessions = 3;
  constexpr int kTxnsEach = 200;
  std::atomic<TxnId> published{kInvalidTxn};
  std::atomic<int> running{kSessions};
  std::vector<std::thread> sessions;
  for (int c = 0; c < kSessions; ++c) {
    sessions.emplace_back([&, c] {
      for (int i = 0; i < kTxnsEach; ++i) {
        const TxnId t = *db_.Begin();
        if (!db_.Add(t, 10 + c, 1).ok()) {
          (void)db_.Abort(t);
          continue;
        }
        const TxnId target = published.exchange(t);
        // The target belongs to another session and may be committing,
        // aborting or reaped right now: the transfer lands or is refused.
        if (target != kInvalidTxn && i % 2 == 0 &&
            db_.Delegate(t, target, DelegationSpec::All()).ok()) {
          (void)db_.Abort(t);  // nothing left to roll back
        } else if (i % 5 == 4) {
          (void)db_.Abort(t);
        } else {
          (void)db_.Commit(t);
        }
      }
      running.fetch_sub(1);
    });
  }
  uint64_t checkpoints = 0;
  do {
    ASSERT_TRUE(db_.Checkpoint().ok());
    ++checkpoints;
  } while (running.load() > 0);
  for (std::thread& session : sessions) session.join();
  ASSERT_TRUE(db_.Checkpoint().ok());
  EXPECT_GT(checkpoints, 0u);
  EXPECT_GT(db_.stats().txns_reaped.value(), 0u);
  for (const auto& [id, tx] :
       db_.shard(0)->txn_manager()->SnapshotTransactions()) {
    EXPECT_NE(tx.state, TxnState::kActive) << "txn " << id << " left active";
  }

  std::vector<int64_t> live;
  for (int c = 0; c < kSessions; ++c) {
    live.push_back(*db_.ReadCommitted(10 + c));
  }
  ASSERT_TRUE(db_.Sync().ok());
  db_.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db_).ok());
  for (int c = 0; c < kSessions; ++c) {
    EXPECT_EQ(*db_.ReadCommitted(10 + c), live[c]) << "session " << c;
  }
}

// A cascade abort reaches a dependent that its own session is committing at
// the same moment, while a checkpoint loop reaps whatever finished. The
// cascade finds the dependent live, terminating or gone; its control block
// stays valid for as long as either session holds it (the ASan and TSan legs
// run this), and exactly the dependents whose commit succeeded survive.
TEST_F(TxnManagerTest, CascadeAbortRacesDependentCommitUnderCheckpoints) {
  constexpr int kRounds = 200;
  constexpr ObjectId kCounter = 50;
  std::atomic<bool> done{false};
  std::atomic<int> checkpoint_failures{0};
  std::thread checkpointer([&] {
    while (!done.load()) {
      if (!db_.Checkpoint().ok()) ++checkpoint_failures;
    }
  });
  int64_t survived = 0;
  for (int round = 0; round < kRounds; ++round) {
    const TxnId on = *db_.Begin();
    ASSERT_TRUE(db_.Add(on, 40, 1).ok());
    const TxnId dependent = *db_.Begin();
    ASSERT_TRUE(db_.Add(dependent, kCounter, 1).ok());
    ASSERT_TRUE(
        db_.FormDependency(DependencyType::kAbort, dependent, on).ok());
    Status committed;
    std::thread owner([&] { committed = db_.Commit(dependent); });
    std::thread cascade([&] { (void)db_.Abort(on); });
    owner.join();
    cascade.join();
    if (committed.ok()) ++survived;
    EXPECT_FALSE(db_.IsActive(dependent)) << "round " << round;
  }
  done.store(true);
  checkpointer.join();
  EXPECT_EQ(checkpoint_failures.load(), 0);
  // Two more checkpoints reap whatever the loop left, however few rounds it
  // overlapped.
  ASSERT_TRUE(db_.Checkpoint().ok());
  ASSERT_TRUE(db_.Checkpoint().ok());
  EXPECT_GT(db_.stats().txns_reaped.value(), 0u);
  EXPECT_EQ(*db_.ReadCommitted(kCounter), survived);
  EXPECT_EQ(*db_.ReadCommitted(40), 0);
}

}  // namespace
}  // namespace ariesrh
