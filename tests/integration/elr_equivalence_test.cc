// Observational equivalence for early lock release across the sharded
// engine: an ELR + device-paced group-commit database must expose exactly the
// same committed state as a plain force-commit database after running the
// same workload and crashing — across {2, 4} shards and both recovery
// modes. Also pins the 2PC soundness rule: a prepared shard keeps its
// locks (no early release, no dependency handout) until the coordinator's
// decision is durable.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "core/database.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

constexpr int kWorkers = 4;
constexpr int kTxnsPerWorker = 8;

Options BaseOptions(size_t shards, RecoveryMode mode) {
  Options options;
  options.num_shards = shards;
  options.recovery_mode = mode;
  options.force_commits = true;
  return options;
}

Options ElrAdaptiveOptions(size_t shards, RecoveryMode mode) {
  Options options = BaseOptions(shards, mode);
  options.group_commit = true;
  options.group_commit_policy = GroupCommitPolicy::kAdaptive;
  options.early_lock_release = true;
  return options;
}

ObjectId ObOnShard(const Database& db, size_t shard, ObjectId from = 1) {
  for (ObjectId ob = from;; ++ob) {
    if (db.ShardOf(ob) == shard) return ob;
  }
}

std::vector<ObjectId> OnePerShard(const Database& db) {
  std::vector<ObjectId> obs;
  ObjectId next = 1;
  for (size_t s = 0; s < db.num_shards(); ++s) {
    obs.push_back(ObOnShard(db, s, next));
    next = obs.back() + 1;
  }
  return obs;
}

class ElrEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<size_t, RecoveryMode>> {
 protected:
  size_t shard_count() const { return std::get<0>(GetParam()); }
  RecoveryMode mode() const { return std::get<1>(GetParam()); }
};

/// Runs the shared workload — concurrent cross-shard increment transactions
/// from several workers — then crashes, recovers, and returns the surviving
/// committed value of every object. Every commit is acknowledged before the
/// crash, so an engine that loses any of them (or double-applies one) shows
/// up as a different vector.
std::vector<int64_t> RunWorkloadThroughCrash(const Options& options) {
  Database db(options);
  const std::vector<ObjectId> obs = OnePerShard(db);

  TxnId setup = *db.Begin();
  for (ObjectId ob : obs) EXPECT_TRUE(db.Set(setup, ob, 0).ok());
  EXPECT_TRUE(db.Commit(setup).ok());
  EXPECT_TRUE(db.Sync().ok());

  std::vector<std::thread> workers;
  std::vector<Status> failures(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kTxnsPerWorker; ++i) {
        TxnId txn = *db.Begin();
        for (ObjectId ob : obs) {
          Status status = db.Add(txn, ob, 1);
          if (!status.ok()) {
            failures[w] = status;
            db.Abort(txn);
            return;
          }
        }
        Status status = db.Commit(txn);
        if (!status.ok()) {
          failures[w] = status;
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const Status& failure : failures) {
    EXPECT_TRUE(failure.ok()) << failure.ToString();
  }

  db.SimulateCrash();
  EXPECT_TRUE(RestartAndAwait(db).ok());
  std::vector<int64_t> values;
  for (ObjectId ob : obs) values.push_back(*db.ReadCommitted(ob));
  return values;
}

TEST_P(ElrEquivalenceTest, ElrEngineMatchesPlainEngineThroughCrash) {
  const std::vector<int64_t> elr =
      RunWorkloadThroughCrash(ElrAdaptiveOptions(shard_count(), mode()));
  const std::vector<int64_t> plain =
      RunWorkloadThroughCrash(BaseOptions(shard_count(), mode()));

  // Every acknowledged increment survived on both engines...
  const int64_t expected = int64_t{kWorkers} * kTxnsPerWorker;
  for (int64_t value : elr) EXPECT_EQ(value, expected);
  // ...which is the observational-equivalence claim: the aggressive commit
  // path is indistinguishable from the conservative one after any crash.
  EXPECT_EQ(elr, plain);
}

TEST_P(ElrEquivalenceTest, AdaptiveWindowIsOutcomeEquivalentToFixed) {
  Options fixed = BaseOptions(shard_count(), mode());
  fixed.group_commit = true;
  fixed.group_commit_window_us = 100;
  fixed.early_lock_release = true;
  EXPECT_EQ(RunWorkloadThroughCrash(ElrAdaptiveOptions(shard_count(), mode())),
            RunWorkloadThroughCrash(fixed));
}

// The 2PC soundness rule for ELR: once a shard is prepared, its locks are
// frozen — not early-released, and never handed out with a commit
// dependency — until the coordinator's decision is durable. A probe Acquire
// at the "2pc:before-decision" point must therefore see plain Busy with an
// empty dependency list.
TEST_P(ElrEquivalenceTest, PreparedShardRetainsLocksUntilDecisionDurable) {
  Database db(ElrAdaptiveOptions(shard_count(), mode()));
  const std::vector<ObjectId> obs = OnePerShard(db);
  constexpr TxnId kProbe = 999'999;

  TxnId t = *db.Begin();
  for (ObjectId ob : obs) ASSERT_TRUE(db.Set(t, ob, 7).ok());

  bool fired = false;
  db.set_test_hook([&](std::string_view at) {
    if (at != "2pc:before-decision") return Status::OK();
    fired = true;
    // Every shard is now prepared. Probe each participant's lock table.
    for (ObjectId ob : obs) {
      LockManager* locks = db.shard(db.ShardOf(ob))->lock_manager();
      LockManager::CommitDependencyList deps;
      Status probe = locks->Acquire(kProbe, ob, LockMode::kExclusive, &deps);
      EXPECT_TRUE(probe.IsBusy())
          << "prepared shard " << db.ShardOf(ob) << " released ob " << ob;
      EXPECT_TRUE(deps.empty())
          << "prepared shard handed out a commit dependency";
    }
    return Status::OK();
  });
  ASSERT_TRUE(db.Commit(t).ok());
  db.set_test_hook(nullptr);
  ASSERT_TRUE(fired) << "2pc:before-decision never reached";

  // After the decision is durable and the shards finished, the locks are
  // genuinely free: the same probe now succeeds without any dependency.
  for (ObjectId ob : obs) {
    LockManager* locks = db.shard(db.ShardOf(ob))->lock_manager();
    LockManager::CommitDependencyList deps;
    EXPECT_TRUE(locks->Acquire(kProbe, ob, LockMode::kExclusive, &deps).ok());
    EXPECT_TRUE(deps.empty());
    locks->ReleaseAll(kProbe);
  }
  for (ObjectId ob : obs) EXPECT_EQ(*db.ReadCommitted(ob), 7);
}

std::string MatrixName(
    const ::testing::TestParamInfo<std::tuple<size_t, RecoveryMode>>& info) {
  return "shards" + std::to_string(std::get<0>(info.param)) +
         (std::get<1>(info.param) == RecoveryMode::kInstant ? "_instant"
                                                            : "_full");
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ElrEquivalenceTest,
    ::testing::Combine(::testing::Values(size_t{2}, size_t{4}),
                       ::testing::Values(RecoveryMode::kFull,
                                         RecoveryMode::kInstant)),
    MatrixName);

}  // namespace
}  // namespace ariesrh
