// The sharded facade: routing, cross-shard two-phase commit, cross-shard
// delegation and coordinated restart. The exhaustive crash-point sweeps live
// in sharded_crash_matrix_test.cc; the N=1 golden log in golden_log_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/database.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "replication/log_shipping.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

Options ShardedOptions(size_t shards) {
  Options options;
  options.num_shards = shards;
  return options;
}

/// First object at or after `from` that routes to `shard`.
ObjectId ObOnShard(const Database& db, size_t shard, ObjectId from = 1) {
  for (ObjectId ob = from;; ++ob) {
    if (db.ShardOf(ob) == shard) return ob;
  }
}

TEST(ShardedDatabaseTest, RoutingIsStableAndCoversEveryShard) {
  Database db(ShardedOptions(4));
  ASSERT_EQ(db.num_shards(), 4u);
  std::set<size_t> seen;
  for (ObjectId ob = 1; ob <= 256; ++ob) {
    const size_t s = db.ShardOf(ob);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, db.ShardOf(ob));  // deterministic
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 4u);
  // A 1-shard engine routes everything to shard 0 and has no coordinator.
  Database one;
  EXPECT_EQ(one.num_shards(), 1u);
  EXPECT_EQ(one.ShardOf(12345), 0u);
  EXPECT_EQ(one.coordinator_log(), nullptr);
}

TEST(ShardedDatabaseTest, SingleShardTransactionsAvoidTheCoordinator) {
  Database db(ShardedOptions(4));
  const ObjectId ob = ObOnShard(db, 2);
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, ob, 7).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  EXPECT_EQ(*db.ReadCommitted(ob), 7);
  EXPECT_EQ(db.coordinator_log()->stable_size(), 0u);
}

TEST(ShardedDatabaseTest, VacuousCommitTouchesNothing) {
  Database db(ShardedOptions(4));
  TxnId t = *db.Begin();
  EXPECT_TRUE(db.Commit(t).ok());
  EXPECT_TRUE(db.Commit(t).IsIllegalState());  // terminated
}

TEST(ShardedDatabaseTest, CrossShardCommitRunsTwoPhase) {
  Database db(ShardedOptions(4));
  const ObjectId a = ObOnShard(db, 0);
  const ObjectId b = ObOnShard(db, 1);
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, a, 10).ok());
  ASSERT_TRUE(db.Set(t, b, 20).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  EXPECT_EQ(*db.ReadCommitted(a), 10);
  EXPECT_EQ(*db.ReadCommitted(b), 20);
  // The coordinator durably holds the round: PREPARE + the forced COMMIT.
  const auto records = db.coordinator_log()->StableRecords();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, coord::CoordRecordType::kPrepare);
  EXPECT_EQ(records[1].type, coord::CoordRecordType::kCommit);
  EXPECT_EQ(records[1].kind, coord::CoordRoundKind::kCommitTxn);
  EXPECT_EQ(records[1].txn, t);
  EXPECT_EQ(records[1].shards.size(), 2u);
}

TEST(ShardedDatabaseTest, CrossShardAbortUndoesEverywhere) {
  Database db(ShardedOptions(4));
  const ObjectId a = ObOnShard(db, 0);
  const ObjectId b = ObOnShard(db, 3);
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Add(t, a, 5).ok());
  ASSERT_TRUE(db.Add(t, b, 6).ok());
  ASSERT_TRUE(db.Abort(t).ok());
  EXPECT_EQ(*db.ReadCommitted(a), 0);
  EXPECT_EQ(*db.ReadCommitted(b), 0);
  EXPECT_EQ(db.coordinator_log()->stable_size(), 0u);  // aborts are local
}

TEST(ShardedDatabaseTest, LazySecondPhaseResolvesInDoubtCommitted) {
  // The commit point is the coordinator's forced COMMIT; the shards' own
  // COMMIT/END records are volatile until some later force. A crash right
  // after Commit() returns must still preserve the transaction — restart
  // finds both shards prepared and resolves them from the coordinator log.
  Database db(ShardedOptions(2));
  const ObjectId a = ObOnShard(db, 0);
  const ObjectId b = ObOnShard(db, 1);
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, a, 1).ok());
  ASSERT_TRUE(db.Set(t, b, 2).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->in_doubt_committed, 2u);  // one per participating shard
  EXPECT_EQ(outcome->in_doubt_aborted, 0u);
  EXPECT_EQ(*db.ReadCommitted(a), 1);
  EXPECT_EQ(*db.ReadCommitted(b), 2);
}

TEST(ShardedDatabaseTest, CrossShardDelegationMovesResponsibility) {
  Database db(ShardedOptions(4));
  const ObjectId a = ObOnShard(db, 1);
  const ObjectId b = ObOnShard(db, 2);
  TxnId tor = *db.Begin();
  TxnId tee = *db.Begin();
  ASSERT_TRUE(db.Set(tor, a, 11).ok());
  ASSERT_TRUE(db.Set(tor, b, 22).ok());
  ASSERT_TRUE(db.Delegate(tor, tee, DelegationSpec::Objects({a, b})).ok());
  // The transfer was its own coordinator round.
  const auto records = db.coordinator_log()->StableRecords();
  ASSERT_GE(records.size(), 2u);
  EXPECT_EQ(records.back().type, coord::CoordRecordType::kCommit);
  EXPECT_EQ(records.back().kind, coord::CoordRoundKind::kDelegate);
  // The delegator dies; the delegatee commits the inherited updates.
  ASSERT_TRUE(db.Abort(tor).ok());
  ASSERT_TRUE(db.Commit(tee).ok());
  EXPECT_EQ(*db.ReadCommitted(a), 11);
  EXPECT_EQ(*db.ReadCommitted(b), 22);
}

TEST(ShardedDatabaseTest, DelegatedUpdatesSurviveCrashRecovery) {
  // The positive half of delegation atomicity: once the transfer's
  // coordinator COMMIT is durable and the delegatee commits, a crash must
  // not void the csn-stamped DELEGATE legs.
  Database db(ShardedOptions(2));
  const ObjectId a = ObOnShard(db, 0);
  const ObjectId b = ObOnShard(db, 1);
  TxnId tor = *db.Begin();
  TxnId tee = *db.Begin();
  ASSERT_TRUE(db.Add(tor, a, 3).ok());
  ASSERT_TRUE(db.Add(tor, b, 4).ok());
  ASSERT_TRUE(db.Delegate(tor, tee, DelegationSpec::All()).ok());
  ASSERT_TRUE(db.Commit(tee).ok());
  // tor is an (empty) active loser at the crash.
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(a), 3);
  EXPECT_EQ(*db.ReadCommitted(b), 4);
}

TEST(ShardedDatabaseTest, ShardLocalDelegationSkipsTheCoordinator) {
  Database db(ShardedOptions(4));
  const ObjectId a = ObOnShard(db, 1);
  const ObjectId b = ObOnShard(db, 1, a + 1);  // same shard
  TxnId tor = *db.Begin();
  TxnId tee = *db.Begin();
  ASSERT_TRUE(db.Set(tor, a, 1).ok());
  ASSERT_TRUE(db.Set(tor, b, 2).ok());
  ASSERT_TRUE(db.Delegate(tor, tee, DelegationSpec::Objects({a, b})).ok());
  EXPECT_EQ(db.coordinator_log()->stable_size(), 0u);
  ASSERT_TRUE(db.Abort(tor).ok());
  ASSERT_TRUE(db.Commit(tee).ok());
  EXPECT_EQ(*db.ReadCommitted(a), 1);
  EXPECT_EQ(*db.ReadCommitted(b), 2);
}

TEST(ShardedDatabaseTest, OperationRangeDelegationStaysShardLocal) {
  Database db(ShardedOptions(4));
  const ObjectId ob = ObOnShard(db, 2);
  TxnId tor = *db.Begin();
  TxnId tee = *db.Begin();
  ASSERT_TRUE(db.Add(tor, ob, 10).ok());
  const size_t s = db.ShardOf(ob);
  const Lsn mid = db.shard(s)->txn_manager()->Find(tor)->last_lsn;
  ASSERT_TRUE(db.Add(tor, ob, 100).ok());
  ASSERT_TRUE(
      db.Delegate(tor, tee, DelegationSpec::Operations(ob, mid, mid)).ok());
  ASSERT_TRUE(db.Commit(tee).ok());
  ASSERT_TRUE(db.Abort(tor).ok());
  EXPECT_EQ(*db.ReadCommitted(ob), 10);
  // Delegating operations on a shard the delegator never touched refuses.
  TxnId t3 = *db.Begin();
  TxnId t4 = *db.Begin();
  EXPECT_TRUE(db.Delegate(t3, t4, DelegationSpec::Operations(ob, 1, 1))
                  .IsInvalidArgument());
}

TEST(ShardedDatabaseTest, DelegationErrorsMirrorTheClassicRules) {
  Database db(ShardedOptions(4));
  TxnId t1 = *db.Begin();
  TxnId t2 = *db.Begin();
  EXPECT_TRUE(db.Delegate(t1, t1, DelegationSpec::Objects({1}))
                  .IsInvalidArgument());  // self
  EXPECT_TRUE(db.Delegate(t1, t2, DelegationSpec::Objects({}))
                  .IsInvalidArgument());  // empty list
  EXPECT_TRUE(db.Delegate(t1, t2, DelegationSpec::Objects({1}))
                  .IsInvalidArgument());  // not responsible
  // Delegating everything while owning nothing is a no-op.
  EXPECT_TRUE(db.Delegate(t1, t2, DelegationSpec::All()).ok());
}

TEST(ShardedDatabaseTest, CrossShardDelegationChecksEveryLegFirst) {
  // The delegator touched shard 1, but not the listed object there: the
  // transfer is refused before any leg applies, so shard 0 keeps no
  // DELEGATE record and the coordinator never opens a round.
  Database db(ShardedOptions(2));
  const ObjectId a = ObOnShard(db, 0);
  const ObjectId b = ObOnShard(db, 1);
  const ObjectId c = ObOnShard(db, 1, b + 1);
  TxnId tor = *db.Begin();
  TxnId tee = *db.Begin();
  ASSERT_TRUE(db.Add(tor, a, 1).ok());
  ASSERT_TRUE(db.Add(tor, c, 2).ok());
  EXPECT_TRUE(db.Delegate(tor, tee, DelegationSpec::Objects({a, b}))
                  .IsInvalidArgument());
  LogManager* log0 = db.shard(0)->log_manager();
  for (Lsn lsn = 1; lsn <= log0->end_lsn(); ++lsn) {
    Result<LogRecord> rec = log0->Read(lsn);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_NE(rec->type, LogRecordType::kDelegate) << "lsn " << lsn;
  }
  ASSERT_TRUE(db.coordinator_log()->Force().ok());
  EXPECT_EQ(db.coordinator_log()->stable_size(), 0u);
  EXPECT_FALSE(db.poisoned());
  // A retry with objects the delegator is responsible for goes through.
  ASSERT_TRUE(db.Delegate(tor, tee, DelegationSpec::Objects({a, c})).ok());
  ASSERT_TRUE(db.Abort(tor).ok());
  ASSERT_TRUE(db.Commit(tee).ok());
  EXPECT_EQ(*db.ReadCommitted(a), 1);
  EXPECT_EQ(*db.ReadCommitted(c), 2);
}

TEST(ShardedDatabaseTest, DependenciesSpanShards) {
  Database db(ShardedOptions(4));
  const ObjectId a = ObOnShard(db, 0);
  const ObjectId b = ObOnShard(db, 1);
  TxnId t1 = *db.Begin();
  TxnId t2 = *db.Begin();
  ASSERT_TRUE(db.Set(t1, a, 1).ok());
  ASSERT_TRUE(db.Set(t2, b, 2).ok());
  ASSERT_TRUE(
      db.FormDependency(DependencyType::kCommit, t2, t1).ok());
  EXPECT_TRUE(db.Commit(t2).IsBusy());  // prerequisite still active
  ASSERT_TRUE(db.Commit(t1).ok());
  EXPECT_TRUE(db.Commit(t2).ok());

  // A strong-commit dependent dies with its prerequisite: aborting t3
  // cascades into t4 immediately, across shards.
  TxnId t3 = *db.Begin();
  TxnId t4 = *db.Begin();
  ASSERT_TRUE(db.Set(t3, a, 3).ok());
  ASSERT_TRUE(db.Set(t4, b, 4).ok());
  ASSERT_TRUE(
      db.FormDependency(DependencyType::kStrongCommit, t4, t3).ok());
  ASSERT_TRUE(db.Abort(t3).ok());
  EXPECT_TRUE(db.Commit(t4).IsIllegalState());  // already cascade-aborted
  EXPECT_EQ(*db.ReadCommitted(b), 2);       // t4's write died with it
  // And forming one on an already-aborted target aborts on the spot.
  TxnId t7 = *db.Begin();
  ASSERT_TRUE(db.Set(t7, a, 7).ok());
  ASSERT_TRUE(
      db.FormDependency(DependencyType::kStrongCommit, t7, t3).ok());
  EXPECT_TRUE(db.Commit(t7).IsIllegalState());
  EXPECT_EQ(*db.ReadCommitted(a), 1);

  // Abort dependencies cascade across shards.
  TxnId t5 = *db.Begin();
  TxnId t6 = *db.Begin();
  ASSERT_TRUE(db.Set(t5, a, 5).ok());
  ASSERT_TRUE(db.Set(t6, b, 6).ok());
  ASSERT_TRUE(db.FormDependency(DependencyType::kAbort, t6, t5).ok());
  ASSERT_TRUE(db.Abort(t5).ok());
  EXPECT_TRUE(db.Commit(t6).IsIllegalState());  // already gone with the cascade
  EXPECT_EQ(*db.ReadCommitted(b), 2);
}

TEST(ShardedDatabaseTest, SavepointsRequireOneShard) {
  Database db(ShardedOptions(4));
  const ObjectId a = ObOnShard(db, 0);
  const ObjectId b = ObOnShard(db, 1);
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, a, 1).ok());
  Result<Lsn> sp = db.Savepoint(t);
  ASSERT_TRUE(sp.ok()) << sp.status().ToString();
  ASSERT_TRUE(db.Set(t, a, 2).ok());
  EXPECT_TRUE(db.RollbackTo(t, *sp).ok());
  EXPECT_EQ(*db.Read(t, a), 1);
  // The moment the transaction spans shards, savepoints refuse.
  ASSERT_TRUE(db.Set(t, b, 9).ok());
  EXPECT_TRUE(db.Savepoint(t).status().IsNotSupported());
  EXPECT_TRUE(db.RollbackTo(t, *sp).IsNotSupported());
}

TEST(ShardedDatabaseTest, PermitCrossesShardsForTheGrantedObject) {
  Database db(ShardedOptions(4));
  const ObjectId ob = ObOnShard(db, 3);
  TxnId owner = *db.Begin();
  TxnId grantee = *db.Begin();
  ASSERT_TRUE(db.Set(owner, ob, 5).ok());
  ASSERT_TRUE(db.Permit(owner, grantee, ob).ok());
  EXPECT_TRUE(db.Set(grantee, ob, 6).ok());
  ASSERT_TRUE(db.Commit(grantee).ok());
  ASSERT_TRUE(db.Commit(owner).ok());
}

TEST(ShardedDatabaseTest, PoisonedFacadeDemandsCrashRecovery) {
  Database db(ShardedOptions(2));
  const ObjectId a = ObOnShard(db, 0);
  const ObjectId b = ObOnShard(db, 1);
  TxnId tor = *db.Begin();
  TxnId tee = *db.Begin();
  ASSERT_TRUE(db.Set(tor, a, 1).ok());
  ASSERT_TRUE(db.Set(tor, b, 2).ok());
  db.set_test_hook([](std::string_view point) {
    return point == "xdel:before-decision" ? Status::IllegalState("crash here")
                                           : Status::OK();
  });
  EXPECT_FALSE(db.Delegate(tor, tee, DelegationSpec::All()).ok());
  db.set_test_hook(nullptr);
  EXPECT_TRUE(db.poisoned());
  // Half-transferred volatile state: everything refuses until restart.
  EXPECT_TRUE(db.Begin().status().IsIllegalState());
  EXPECT_TRUE(db.Commit(tee).IsIllegalState());
  EXPECT_TRUE(db.ReadCommitted(a).status().IsIllegalState());
  db.SimulateCrash();
  EXPECT_FALSE(db.poisoned());
  ASSERT_TRUE(RestartAndAwait(db).ok());
  // No durable coordinator COMMIT: the undecided transfer was voided and
  // both parties died as active losers — nothing half-applied survives.
  EXPECT_EQ(*db.ReadCommitted(a), 0);
  EXPECT_EQ(*db.ReadCommitted(b), 0);
}

TEST(ShardedDatabaseTest, TxnIdsStayGloballyUniqueAcrossRestart) {
  Database db(ShardedOptions(2));
  const ObjectId a = ObOnShard(db, 0);
  const ObjectId b = ObOnShard(db, 1);
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t1, a, 1).ok());
  ASSERT_TRUE(db.Set(t1, b, 2).ok());
  ASSERT_TRUE(db.Commit(t1).ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  TxnId t2 = *db.Begin();
  EXPECT_GT(t2, t1);
  // The coordinator's csn counter re-seeds past the durable records too:
  // a fresh cross-shard round must land a csn recovery has never judged.
  const uint64_t max_before =
      coord::Resolution::FromRecords(db.coordinator_log()->StableRecords())
          .max_csn;
  ASSERT_TRUE(db.Set(t2, a, 3).ok());
  ASSERT_TRUE(db.Set(t2, b, 4).ok());
  ASSERT_TRUE(db.Commit(t2).ok());
  const auto records = db.coordinator_log()->StableRecords();
  EXPECT_GT(records.back().csn, max_before);
}

// A restart that fails on one shard leaves the engine crashed as a whole,
// so a plain StartRecovery() retries it. Under kFull shard 1's restart
// fails while shard 0's succeeds; under kInstant shard 1's background undo
// fails after both shards opened.
class ShardedRestartRetryTest : public ::testing::TestWithParam<RecoveryMode> {
};

INSTANTIATE_TEST_SUITE_P(Modes, ShardedRestartRetryTest,
                         ::testing::Values(RecoveryMode::kFull,
                                           RecoveryMode::kInstant),
                         [](const auto& info) {
                           return std::string(RecoveryModeName(info.param));
                         });

TEST_P(ShardedRestartRetryTest, FailedRestartOnOneShardIsRetried) {
  Options options = ShardedOptions(2);
  options.recovery_mode = GetParam();
  Database db(options);
  const ObjectId a = ObOnShard(db, 0);
  const ObjectId b = ObOnShard(db, 1);
  const ObjectId c = ObOnShard(db, 1, b + 1);
  TxnId winner = *db.Begin();
  ASSERT_TRUE(db.Set(winner, a, 1).ok());
  ASSERT_TRUE(db.Set(winner, b, 2).ok());
  ASSERT_TRUE(db.Commit(winner).ok());
  TxnId loser = *db.Begin();
  ASSERT_TRUE(db.Set(loser, a, 10).ok());
  ASSERT_TRUE(db.Set(loser, b, 20).ok());
  ASSERT_TRUE(db.Set(loser, c, 30).ok());
  ASSERT_TRUE(db.Sync().ok());
  db.SimulateCrash();

  db.set_test_hook(CrashAt("recovery:undo:1", 1));
  Result<RecoveryManager::Outcome> first = RestartAndAwait(db);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsIOError()) << first.status().ToString();
  EXPECT_TRUE(db.NeedsRecovery());
  EXPECT_TRUE(db.Begin().status().IsIllegalState());

  db.set_test_hook(nullptr);
  Result<RecoveryManager::Outcome> retry = RestartAndAwait(db);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_FALSE(db.NeedsRecovery());
  EXPECT_EQ(*db.ReadCommitted(a), 1);
  EXPECT_EQ(*db.ReadCommitted(b), 2);
  EXPECT_EQ(*db.ReadCommitted(c), 0);
  TxnId after = *db.Begin();
  ASSERT_TRUE(db.Set(after, a, 3).ok());
  ASSERT_TRUE(db.Set(after, b, 4).ok());
  ASSERT_TRUE(db.Commit(after).ok());
  EXPECT_EQ(*db.ReadCommitted(b), 4);
}

TEST(ShardedDatabaseTest, ShardedSaveOpenRoundTrips) {
  // SaveTo/Open were single-shard only; the lifted surface persists every
  // shard image plus the coordinator sidecar and reopens them as one
  // coordinated restart. Backup/restore remains single-shard.
  const std::string path =
      ::testing::TempDir() + "/ariesrh_sharded_save.ariesrh";
  Options two = ShardedOptions(2);
  ObjectId a = 0;
  ObjectId b = 0;
  {
    Database db(two);
    a = ObOnShard(db, 0);
    b = ObOnShard(db, 1);
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Set(t, a, 7).ok());
    ASSERT_TRUE(db.Set(t, b, 9).ok());
    ASSERT_TRUE(db.Commit(t).ok());
    ASSERT_TRUE(db.Sync().ok());
    EXPECT_TRUE(db.Backup().status().IsNotSupported());
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  Result<Database::OpenResult> reopened = Database::Open(two, path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Database& db = *reopened->db;
  ASSERT_TRUE(reopened->recovery->Await().ok());
  EXPECT_EQ(*db.ReadCommitted(a), 7);
  EXPECT_EQ(*db.ReadCommitted(b), 9);
  // The reopened facade still runs cross-shard two-phase commit.
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, a, 8).ok());
  ASSERT_TRUE(db.Set(t, b, 10).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  EXPECT_EQ(*db.ReadCommitted(b), 10);
  std::remove(path.c_str());
  std::remove((path + ".shard1").c_str());
  std::remove((path + ".coord").c_str());
}

TEST(ShardedDatabaseTest, OpenFailsOnACorruptShardImageAndRetries) {
  // One bad shard image fails the whole open, with that file's error, and
  // leaves nothing behind that a retry with the file restored trips on.
  const std::string path =
      ::testing::TempDir() + "/ariesrh_sharded_corrupt.ariesrh";
  const std::string shard1 = Database::ShardImagePath(path, 1);
  Options two = ShardedOptions(2);
  ObjectId a = 0;
  ObjectId b = 0;
  {
    Database db(two);
    a = ObOnShard(db, 0);
    b = ObOnShard(db, 1);
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Set(t, a, 3).ok());
    ASSERT_TRUE(db.Set(t, b, 4).ok());
    ASSERT_TRUE(db.Commit(t).ok());
    ASSERT_TRUE(db.Sync().ok());
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  std::string image;
  {
    std::ifstream in(shard1, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(image.size(), 16u);
  auto write_shard1 = [&](const std::string& bytes) {
    std::ofstream out(shard1, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  std::string flipped = image;
  flipped[flipped.size() / 2] ^= 0x40;
  write_shard1(flipped);

  Result<Database::OpenResult> bad = Database::Open(two, path);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsCorruption()) << bad.status().ToString();
  EXPECT_NE(bad.status().ToString().find(shard1), std::string::npos)
      << bad.status().ToString();

  write_shard1(image);
  Result<Database::OpenResult> good = Database::Open(two, path);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_TRUE(good->recovery->Await().ok());
  EXPECT_EQ(*good->db->ReadCommitted(a), 3);
  EXPECT_EQ(*good->db->ReadCommitted(b), 4);
  std::remove(path.c_str());
  std::remove(shard1.c_str());
  std::remove((path + ".coord").c_str());
}

TEST(ShardedDatabaseTest, PerShardMetricsCarryShardLabels) {
  Database db(ShardedOptions(2));
  const ObjectId a = ObOnShard(db, 0);
  const ObjectId b = ObOnShard(db, 1);
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, a, 1).ok());
  ASSERT_TRUE(db.Set(t, b, 2).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  obs::MetricsRegistry* registry = db.metrics();
  obs::Counter* s0 = registry->FindCounter("ariesrh_txns_committed",
                                           "shard=\"0\"");
  obs::Counter* s1 = registry->FindCounter("ariesrh_txns_committed",
                                           "shard=\"1\"");
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  // One 2PC commit counts once per participating shard, each in its own
  // series; the engine-wide value sums the family.
  EXPECT_EQ(s0->Value(), 1u);
  EXPECT_EQ(s1->Value(), 1u);
  EXPECT_EQ(db.shard(0)->stats().txns_committed.value(), 1u);
  EXPECT_EQ(db.stats().txns_committed.value(),
            registry->SumCounters("ariesrh_txns_committed"));
  EXPECT_EQ(db.stats().txns_committed.value(), 2u);
  // A classic 1-shard engine binds only the unlabelled series.
  Database one;
  TxnId u = *one.Begin();
  ASSERT_TRUE(one.Set(u, 1, 1).ok());
  ASSERT_TRUE(one.Commit(u).ok());
  EXPECT_EQ(one.metrics()->FindCounter("ariesrh_txns_committed",
                                       "shard=\"0\""),
            nullptr);
  EXPECT_EQ(one.metrics()->FindCounter("ariesrh_txns_committed")->Value(), 1u);
}

TEST(ShardedDatabaseTest, EachShardRestartCountsOnlyItsOwnUndo) {
  Options options = ShardedOptions(2);
  options.recovery_mode = RecoveryMode::kFull;
  // Seeks slow both undo sweeps, so the shards' parallel sweeps overlap.
  options.sim_log_random_read_ns = 20'000;
  Database db(options);
  // Losers on both shards, of different sizes, over committed traffic the
  // undo sweeps pass.
  TxnId loser0 = *db.Begin();
  TxnId loser1 = *db.Begin();
  for (ObjectId ob = 1; ob <= 40; ++ob) {
    TxnId filler = *db.Begin();
    ASSERT_TRUE(db.Add(filler, 100 + ob, 1).ok());
    ASSERT_TRUE(db.Commit(filler).ok());
    if (ob % 2 == 0) {
      ASSERT_TRUE(db.Add(loser0, ObOnShard(db, 0, 1000 + ob * 8), 1).ok());
    }
    if (ob % 4 == 0) {
      ASSERT_TRUE(db.Add(loser1, ObOnShard(db, 1, 1000 + ob * 8), 1).ok());
    }
  }
  ASSERT_TRUE(db.Sync().ok());
  db.SimulateCrash();
  const std::string family = "ariesrh_recovery_backward_examined";
  uint64_t before[2];
  for (size_t i = 0; i < 2; ++i) {
    before[i] = db.metrics()
                    ->FindCounter(family, db.shard(i)->metric_labels())
                    ->Value();
  }
  const Stats engine_before = db.stats();
  const uint64_t emitted_before = db.trace()->total_emitted();
  ASSERT_TRUE(RestartAndAwait(db).ok());

  std::vector<uint64_t> own;
  for (size_t i = 0; i < 2; ++i) {
    own.push_back(db.metrics()
                      ->FindCounter(family, db.shard(i)->metric_labels())
                      ->Value() -
                  before[i]);
    EXPECT_GT(own.back(), 0u);
  }
  // The trace carries no shard id: the two undo payloads, matched as a
  // multiset, must be the two shards' own deltas.
  std::vector<uint64_t> payloads;
  for (const obs::TraceEvent& event : db.trace()->Snapshot()) {
    if (event.seq > emitted_before &&
        event.type == obs::TraceEventType::kRecoveryPassEnd &&
        event.a == static_cast<uint64_t>(obs::RecoveryPassKind::kUndo)) {
      payloads.push_back(event.b);
    }
  }
  std::sort(own.begin(), own.end());
  std::sort(payloads.begin(), payloads.end());
  EXPECT_EQ(payloads, own);
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0] + payloads[1],
            db.stats().Delta(engine_before).recovery_backward_examined);
}

TEST(ShardedDatabaseTest, TwoPhaseCommitPhasesSumToCommitLatency) {
  Options options = ShardedOptions(2);
  options.group_commit = true;
  options.group_commit_policy = GroupCommitPolicy::kAdaptive;
  options.sim_log_force_ns = 200'000;
  Database db(options);
  const ObjectId a = ObOnShard(db, 0);
  const ObjectId b = ObOnShard(db, 1);
  constexpr uint64_t kCommits = 20;
  for (uint64_t i = 0; i < kCommits; ++i) {
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Set(t, a, static_cast<int64_t>(i)).ok());
    ASSERT_TRUE(db.Set(t, b, static_cast<int64_t>(i)).ok());
    ASSERT_TRUE(db.Commit(t).ok());
  }
  obs::MetricsRegistry* registry = db.metrics();
  const obs::Histogram* total =
      registry->FindHistogram("ariesrh_commit_latency_ns");
  const obs::Histogram* prepare =
      registry->FindHistogram("ariesrh_2pc_prepare_ns");
  const obs::Histogram* coord_force =
      registry->FindHistogram("ariesrh_2pc_coord_force_ns");
  const obs::Histogram* finish =
      registry->FindHistogram("ariesrh_2pc_finish_ns");
  ASSERT_NE(total, nullptr);
  ASSERT_NE(prepare, nullptr);
  ASSERT_NE(coord_force, nullptr);
  ASSERT_NE(finish, nullptr);
  // Every commit here is a 2PC round, so each histogram saw each commit.
  EXPECT_EQ(total->Count(), kCommits);
  EXPECT_EQ(prepare->Count(), kCommits);
  EXPECT_EQ(coord_force->Count(), kCommits);
  EXPECT_EQ(finish->Count(), kCommits);
  // The vote round and the coordinator force are the whole acked latency.
  const double whole = static_cast<double>(total->GetSnapshot().sum);
  const double parts = static_cast<double>(prepare->GetSnapshot().sum +
                                           coord_force->GetSnapshot().sum);
  EXPECT_GT(whole, 0.0);
  EXPECT_NEAR(parts, whole, whole * 0.10);
  // Each round pays at least one shard force and the coordinator force.
  EXPECT_GE(prepare->GetSnapshot().sum, kCommits * options.sim_log_force_ns);
  EXPECT_GE(coord_force->GetSnapshot().sum,
            kCommits * options.sim_log_force_ns);
}

TEST(ShardedStandbyTest, ShardedLogShippingAndPromotion) {
  Options options = ShardedOptions(2);
  Database primary(options);
  replication::StandbyReplica standby(options);
  const ObjectId a = ObOnShard(primary, 0);
  const ObjectId b = ObOnShard(primary, 1);

  // A cross-shard commit and a cross-shard delegation, so promotion needs
  // the shipped coordinator decisions to resolve both rounds.
  TxnId t1 = *primary.Begin();
  ASSERT_TRUE(primary.Set(t1, a, 10).ok());
  ASSERT_TRUE(primary.Set(t1, b, 20).ok());
  ASSERT_TRUE(primary.Commit(t1).ok());
  TxnId tor = *primary.Begin();
  TxnId tee = *primary.Begin();
  ASSERT_TRUE(primary.Add(tor, a, 1).ok());
  ASSERT_TRUE(primary.Add(tor, b, 2).ok());
  ASSERT_TRUE(primary.Delegate(tor, tee, DelegationSpec::All()).ok());
  ASSERT_TRUE(primary.Commit(tee).ok());
  ASSERT_TRUE(primary.Sync().ok());

  ASSERT_TRUE(standby.SyncFrom(primary).ok());
  EXPECT_GT(standby.shipped_through(0), 0u);
  EXPECT_GT(standby.shipped_through(1), 0u);
  EXPECT_GE(standby.RetentionPin(), 1u);

  Result<std::unique_ptr<Database>> promoted = std::move(standby).Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(*(*promoted)->ReadCommitted(a), 11);
  EXPECT_EQ(*(*promoted)->ReadCommitted(b), 22);
}

TEST(ShardedStandbyTest, ShardCountMismatchRefused) {
  Database primary(ShardedOptions(2));
  replication::StandbyReplica standby{Options{}};  // 1 shard
  EXPECT_TRUE(standby.SyncFrom(primary).IsInvalidArgument());
}

TEST(ShardedStandbyTest, BackupSeedingIsSingleShardOnly) {
  replication::StandbyReplica standby(ShardedOptions(2));
  Database::BackupImage backup;
  EXPECT_TRUE(standby.SeedFromBackup(backup).IsNotSupported());
}

// The names Database::set_test_hook documents, shard and bucket indices
// stripped. A point that is dropped or renamed fails the test below.
const std::set<std::string> kDocumentedTestPoints = {
    "2pc:before-prepare",        "2pc:votes-appended",
    "2pc:before-decision",       "2pc:after-decision",
    "2pc:before-finish",         "xdel:before-coord-prepare",
    "xdel:before-apply",         "xdel:legs-appended",
    "xdel:before-decision",      "xdel:after-decision",
    "checkpoint:after-begin",    "checkpoint:after-bucket",
    "checkpoint:after-snapshot", "recovery:redo",
    "recovery:undo"};

/// `point` without its trailing ":<index>" parts.
std::string WithoutIndices(std::string_view point) {
  while (true) {
    const size_t colon = point.rfind(':');
    if (colon == std::string_view::npos || colon + 1 == point.size() ||
        point.find_first_not_of("0123456789", colon + 1) !=
            std::string_view::npos) {
      return std::string(point);
    }
    point.remove_suffix(point.size() - colon);
  }
}

TEST(TestHookTest, EveryDocumentedPointFires) {
  // A kFull restart at one recovery thread redoes inline, at two on redo
  // workers: each run must reach every point.
  for (size_t threads : {1u, 2u}) {
    Options options = ShardedOptions(2);
    options.recovery_threads = threads;
    Database db(options);
    std::mutex mu;
    std::set<std::string> seen;
    db.set_test_hook([&](std::string_view point) {
      std::lock_guard lock(mu);
      seen.insert(WithoutIndices(point));
      return Status::OK();
    });
    const ObjectId a = ObOnShard(db, 0);
    const ObjectId b = ObOnShard(db, 1);

    // A 2PC commit, and a cross-shard delegation.
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Set(t, a, 1).ok());
    ASSERT_TRUE(db.Set(t, b, 2).ok());
    ASSERT_TRUE(db.Commit(t).ok());
    TxnId tor = *db.Begin();
    TxnId tee = *db.Begin();
    ASSERT_TRUE(db.Add(tor, a, 3).ok());
    ASSERT_TRUE(db.Add(tor, b, 4).ok());
    ASSERT_TRUE(db.Delegate(tor, tee, DelegationSpec::Objects({a, b})).ok());
    ASSERT_TRUE(db.Commit(tee).ok());
    ASSERT_TRUE(db.Commit(tor).ok());

    // The second checkpoint has a predecessor, so it writes back.
    for (int round = 0; round < 2; ++round) {
      TxnId put = *db.Begin();
      for (int k = 0; k < 8; ++k) {
        ASSERT_TRUE(db.TablePut(put, "key" + std::to_string(k), "v").ok());
      }
      ASSERT_TRUE(db.Commit(put).ok());
      ASSERT_TRUE(db.Checkpoint().ok());
    }

    // A crash with a durable loser on both shards: redo and undo.
    TxnId loser = *db.Begin();
    ASSERT_TRUE(db.Set(loser, a, 9).ok());
    ASSERT_TRUE(db.Set(loser, b, 9).ok());
    ASSERT_TRUE(db.Sync().ok());
    db.SimulateCrash();
    Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->losers, 2u);  // one per shard
    db.set_test_hook(nullptr);
    EXPECT_EQ(seen, kDocumentedTestPoints) << "recovery_threads=" << threads;
  }
}

}  // namespace
}  // namespace ariesrh
