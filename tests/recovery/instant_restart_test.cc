// Instant restart (Options::recovery_mode = kInstant): the engine opens
// after analysis alone, redo runs on demand at page fetch, and loser-cluster
// undo drains in the background while the recovery gate blocks only the
// transactions whose footprints intersect an unresolved cluster
// (docs/INSTANT_RESTART.md).
//
// The invariants under test: (1) observational equivalence — once the
// handle's Await() returns, the state is exactly what kFull produces from
// the same image; (2) reads served before the drain are already correct
// (on-demand redo) and never expose un-undone loser values (the gate);
// (3) blocked-scope writes wait rather than error; (4) a failed background
// pass poisons the facade until the next StartRecovery().

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "storage/simulated_disk.h"
#include "table/table_heap.h"
#include "wal/log_record.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + ".ariesrh";
}

Options InstantOptions(size_t shards = 1) {
  Options options;
  options.num_shards = shards;
  options.recovery_mode = RecoveryMode::kInstant;
  return options;
}

/// A phased history: per phase one committed winner band and one loser band
/// on disjoint pages, so instant restart faces several independent undo
/// clusters and redo work spread over many pages. Returns the object ->
/// committed-value ground truth (losers undone).
std::map<ObjectId, int64_t> BuildClusteredHistory(Database* db, int phases,
                                                  int updates_per_txn) {
  std::map<ObjectId, int64_t> truth;
  constexpr ObjectId kBand = 8 * kObjectsPerPage;
  for (int p = 0; p < phases; ++p) {
    const ObjectId base = static_cast<ObjectId>(p) * kBand + 1;
    TxnId winner = *db->Begin();
    TxnId loser = *db->Begin();
    for (int i = 0; i < updates_per_txn; ++i) {
      const ObjectId wob = base + i % kObjectsPerPage;
      const ObjectId lob = base + 4 * kObjectsPerPage + i % 8;
      EXPECT_TRUE(db->Add(winner, wob, 1 + i).ok());
      EXPECT_TRUE(db->Add(loser, lob, 100 + i).ok());
      truth[wob] += 1 + i;
      truth.emplace(lob, 0);  // loser contribution undone
    }
    EXPECT_TRUE(db->Commit(winner).ok());
    // `loser` stays active: one undo cluster per phase.
  }
  EXPECT_TRUE(db->Sync().ok());
  return truth;
}

/// An object in phase `p`'s loser band (covered by that phase's cluster).
ObjectId LoserObject(int p) {
  return static_cast<ObjectId>(p) * 8 * kObjectsPerPage + 1 +
         4 * kObjectsPerPage;
}

TEST(InstantRestartTest, FreshOpenReturnsTerminalHandle) {
  Result<Database::OpenResult> fresh = Database::Open(Options{});
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_TRUE(fresh->recovery->done());
  EXPECT_FALSE(fresh->recovery->failed());
  ASSERT_TRUE(fresh->recovery->Await().ok());
  Database& db = *fresh->db;
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 42).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 42);
}

TEST(InstantRestartTest, InstantOpenMatchesFullAfterAwait) {
  const std::string path = TempPath("instant_equivalence");
  std::map<ObjectId, int64_t> truth;
  {
    Database db;
    truth = BuildClusteredHistory(&db, 4, 24);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_TRUE(db.SaveTo(path).ok());
  }

  // Ground truth via the classic blocking restart.
  Result<Database::OpenResult> full = Database::Open({}, path);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  for (const auto& [ob, expected] : truth) {
    EXPECT_EQ(*full->db->ReadCommitted(ob), expected) << "kFull ob " << ob;
  }

  Result<Database::OpenResult> instant =
      Database::Open(InstantOptions(), path);
  ASSERT_TRUE(instant.ok()) << instant.status().ToString();
  EXPECT_EQ(instant->recovery->mode(), RecoveryMode::kInstant);
  EXPECT_FALSE(instant->db->NeedsRecovery());
  Result<RecoveryManager::Outcome> outcome = instant->recovery->Await();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(instant->recovery->done());
  EXPECT_EQ(outcome->losers, 4u);
  for (const auto& [ob, expected] : truth) {
    EXPECT_EQ(*instant->db->ReadCommitted(ob), expected)
        << "kInstant ob " << ob;
  }
  std::remove(path.c_str());
}

TEST(InstantRestartTest, OnDemandRedoServesReadsBeforeTheDrain) {
  const std::string path = TempPath("instant_ondemand");
  std::map<ObjectId, int64_t> truth;
  {
    Database db;
    truth = BuildClusteredHistory(&db, 4, 40);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  Options options = InstantOptions();
  // Make the background pass pay a hefty simulated seek per random log
  // read, so the foreground reads below land while it is still running.
  options.sim_log_random_read_ns = 200 * 1000;
  Result<Database::OpenResult> opened = Database::Open(options, path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Database& db = *opened->db;

  // Winner-band objects are outside every loser cluster: reads pass the
  // gate immediately, and the fetch triggers that page's on-demand redo.
  const ObjectId wob = 1;
  EXPECT_EQ(*db.ReadCommitted(wob), truth.at(wob));
  EXPECT_GT(db.stats().ondemand_redo_pages.value(), 0u);
  // A fresh transaction on untouched objects commits right away.
  TxnId t = *db.Begin();
  const ObjectId fresh = static_cast<ObjectId>(1) << 20;
  ASSERT_TRUE(db.Set(t, fresh, 7).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  // The engine recorded a time-to-first-commit observation.
  obs::Histogram* ttfc =
      db.metrics()->FindHistogram("ariesrh_time_to_first_commit_ns");
  ASSERT_NE(ttfc, nullptr);
  EXPECT_EQ(ttfc->Count(), 1u);
  // Nothing above touched a loser cluster: the gate never blocked.
  obs::Histogram* gate_wait =
      db.metrics()->FindHistogram("ariesrh_gate_wait_ns");
  ASSERT_NE(gate_wait, nullptr);
  EXPECT_EQ(gate_wait->Count(), 0u);

  ASSERT_TRUE(opened->recovery->Await().ok());
  for (const auto& [ob, expected] : truth) {
    EXPECT_EQ(*db.ReadCommitted(ob), expected) << "ob " << ob;
  }
  std::remove(path.c_str());
}

TEST(InstantRestartTest, BlockedScopeWritesWaitInsteadOfErroring) {
  const std::string path = TempPath("instant_gate");
  {
    Database db;
    BuildClusteredHistory(&db, 3, 40);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  Options options = InstantOptions();
  options.sim_log_random_read_ns = 100 * 1000;
  Result<Database::OpenResult> opened = Database::Open(options, path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Database& db = *opened->db;

  // A write into a loser cluster's footprint must wait for that cluster's
  // sweep, then proceed — never error. Run it from a second thread and
  // assert it lands with the loser's contribution already undone.
  const ObjectId lob = LoserObject(1);
  Status write_status;
  int64_t observed = -1;
  std::thread writer([&] {
    TxnId t = *db.Begin();
    write_status = db.Set(t, lob, 555);
    if (write_status.ok()) write_status = db.Commit(t);
    if (write_status.ok()) {
      Result<int64_t> value = db.ReadCommitted(lob);
      if (value.ok()) observed = *value;
    }
  });
  writer.join();
  EXPECT_TRUE(write_status.ok()) << write_status.ToString();
  EXPECT_EQ(observed, 555);  // loser value gone, our write visible
  ASSERT_TRUE(opened->recovery->Await().ok());
  EXPECT_EQ(*db.ReadCommitted(lob), 555);
  std::remove(path.c_str());
}

TEST(InstantRestartTest, BlockedTablePutWaitsForTheClusterSweep) {
  const std::string path = TempPath("instant_table_gate");
  {
    Database db;
    TxnId setup = *db.Begin();
    ASSERT_TRUE(db.TablePut(setup, "k", "committed").ok());
    ASSERT_TRUE(db.Commit(setup).ok());
    TxnId loser = *db.Begin();
    ASSERT_TRUE(db.TablePut(loser, "k", "loser").ok());
    // Bulk up the loser so its cluster sweep takes real time: the sweep
    // reads the loser's records sequentially, so it pays no seek stall, and
    // must undo every one before it reaches the put.
    for (int i = 0; i < 20000; ++i) {
      ASSERT_TRUE(db.Add(loser, table::TableRid("k") % 1024 + 1, i).ok());
    }
    ASSERT_TRUE(db.Sync().ok());
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  Options options = InstantOptions();
  options.sim_log_random_read_ns = 100 * 1000;
  Result<Database::OpenResult> opened = Database::Open(options, path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Database& db = *opened->db;

  TxnId t = *db.Begin();
  Status put = db.TablePut(t, "k", "mine");  // waits, never errors
  ASSERT_TRUE(put.ok()) << put.ToString();
  ASSERT_TRUE(db.Commit(t).ok());
  Result<std::optional<std::string>> got = db.TableGetCommitted("k");
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ(**got, "mine");
  ASSERT_TRUE(opened->recovery->Await().ok());
  // The put blocked once, for as long as the sweep took to resolve the
  // loser's group; nothing after it found the gate closed.
  const obs::Histogram::Snapshot gate_wait =
      db.metrics()->GetHistogram("ariesrh_gate_wait_ns")->GetSnapshot();
  EXPECT_EQ(gate_wait.count, 1u);
  EXPECT_GT(gate_wait.sum, 0u);
  std::remove(path.c_str());
}

TEST(InstantRestartTest, FailedBackgroundUndoPoisonsTheFacade) {
  const std::string path = TempPath("instant_poison");
  std::map<ObjectId, int64_t> truth;
  {
    Database db;
    truth = BuildClusteredHistory(&db, 3, 16);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  Options options = InstantOptions();
  options.faults.crash_after_undo_steps = 3;
  Result<Database::OpenResult> opened = Database::Open(options, path);
  // The front half (analysis) succeeds, so the open itself succeeds; the
  // background undo then hits the injected fault.
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Database& db = *opened->db;
  Result<RecoveryManager::Outcome> awaited = opened->recovery->Await();
  ASSERT_FALSE(awaited.ok());
  EXPECT_TRUE(awaited.status().IsIOError()) << awaited.status().ToString();
  EXPECT_TRUE(opened->recovery->failed());
  // The facade is poisoned: NeedsRecovery demands a restart and every
  // entry point refuses.
  EXPECT_TRUE(db.NeedsRecovery());
  EXPECT_TRUE(db.poisoned());
  EXPECT_TRUE(db.Begin().status().IsIllegalState());
  EXPECT_FALSE(db.ReadCommitted(LoserObject(0)).ok());

  // The documented remedy converges to the kFull ground truth.
  db.SimulateCrash();
  db.mutable_options()->faults = FaultInjection{};
  ASSERT_TRUE(RestartAndAwait(db).ok());
  for (const auto& [ob, expected] : truth) {
    EXPECT_EQ(*db.ReadCommitted(ob), expected) << "ob " << ob;
  }
  std::remove(path.c_str());
}

TEST(InstantRestartTest, MidProtocolStopDuringBackgroundUndoPoisons) {
  // Satellite bugfix coverage: a coordinator-protocol stop while instant
  // restart's background undo is still draining must poison the facade the
  // same way it does in steady state, and SimulateCrash must cancel the
  // in-flight background pass cleanly.
  const std::string path = TempPath("instant_midprotocol");
  Options two = InstantOptions(2);
  ObjectId a = 0;
  ObjectId b = 0;
  {
    Database db(two);
    for (ObjectId ob = 1; a == 0 || b == 0; ++ob) {
      if (db.ShardOf(ob) == 0 && a == 0) a = ob;
      if (db.ShardOf(ob) == 1 && b == 0) b = ob;
    }
    TxnId setup = *db.Begin();
    ASSERT_TRUE(db.Set(setup, a, 100).ok());
    ASSERT_TRUE(db.Set(setup, b, 100).ok());
    ASSERT_TRUE(db.Commit(setup).ok());
    // A loser per shard keeps background undo busy after the reopen.
    TxnId loser = *db.Begin();
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(db.Add(loser, a + 1024, 1).ok());
      ASSERT_TRUE(db.Add(loser, b + 1024, 1).ok());
    }
    ASSERT_TRUE(db.Sync().ok());
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  Options slow = two;
  slow.sim_log_random_read_ns = 100 * 1000;
  Result<Database::OpenResult> opened = Database::Open(slow, path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Database& db = *opened->db;

  db.set_protocol_test_hook([](const std::string& at) {
    return at == "2pc:before-decision" ? Status::IOError("injected stop")
                                       : Status::OK();
  });
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, a, 7).ok());
  ASSERT_TRUE(db.Set(t, b, 7).ok());
  EXPECT_FALSE(db.Commit(t).ok());
  db.set_protocol_test_hook(nullptr);
  EXPECT_TRUE(db.poisoned());
  EXPECT_TRUE(db.Begin().status().IsIllegalState());

  // SimulateCrash cancels the background pass; a clean kInstant restart
  // (awaited) reaches the ground truth: backdrop survives, losers gone.
  db.SimulateCrash();
  EXPECT_FALSE(db.poisoned());
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(a), 100);
  EXPECT_EQ(*db.ReadCommitted(b), 100);
  EXPECT_EQ(*db.ReadCommitted(a + 1024), 0);
  EXPECT_EQ(*db.ReadCommitted(b + 1024), 0);
  std::remove(path.c_str());
  std::remove((path + ".shard1").c_str());
  std::remove((path + ".coord").c_str());
}

TEST(InstantRestartTest, ShardedInstantRestartAwaitsEveryShard) {
  const std::string path = TempPath("instant_sharded");
  Options two = InstantOptions(2);
  std::map<ObjectId, int64_t> truth;
  {
    Database db(two);
    truth = BuildClusteredHistory(&db, 4, 20);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    TxnId cross = *db.Begin();
    ObjectId a = 0;
    ObjectId b = 0;
    for (ObjectId ob = 1 << 21; a == 0 || b == 0; ++ob) {
      if (db.ShardOf(ob) == 0 && a == 0) a = ob;
      if (db.ShardOf(ob) == 1 && b == 0) b = ob;
    }
    ASSERT_TRUE(db.Set(cross, a, 11).ok());
    ASSERT_TRUE(db.Set(cross, b, 22).ok());
    ASSERT_TRUE(db.Commit(cross).ok());
    truth[a] = 11;
    truth[b] = 22;
    ASSERT_TRUE(db.Sync().ok());
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  Result<Database::OpenResult> opened = Database::Open(two, path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(opened->recovery->Await().ok());
  EXPECT_EQ(opened->recovery->shards_pending(), 0u);
  for (const auto& [ob, expected] : truth) {
    EXPECT_EQ(*opened->db->ReadCommitted(ob), expected) << "ob " << ob;
  }
  std::remove(path.c_str());
  std::remove((path + ".shard1").c_str());
  std::remove((path + ".coord").c_str());
}

TEST(InstantRestartTest, OpenFromBackupHonorsBothModes) {
  Database source;
  TxnId t = *source.Begin();
  ASSERT_TRUE(source.Set(t, 1, 10).ok());
  ASSERT_TRUE(source.Set(t, 2, 20).ok());
  ASSERT_TRUE(source.Commit(t).ok());
  Result<Database::BackupImage> backup = source.Backup();
  ASSERT_TRUE(backup.ok()) << backup.status().ToString();
  // Post-backup work must not leak into a database built from the image.
  TxnId later = *source.Begin();
  ASSERT_TRUE(source.Set(later, 3, 30).ok());
  ASSERT_TRUE(source.Commit(later).ok());

  for (RecoveryMode mode : {RecoveryMode::kFull, RecoveryMode::kInstant}) {
    Options options;
    options.recovery_mode = mode;
    Result<Database::OpenResult> restored =
        Database::OpenFromBackup(options, *backup);
    ASSERT_TRUE(restored.ok())
        << RecoveryModeName(mode) << ": " << restored.status().ToString();
    ASSERT_TRUE(restored->recovery->Await().ok()) << RecoveryModeName(mode);
    EXPECT_EQ(*restored->db->ReadCommitted(1), 10) << RecoveryModeName(mode);
    EXPECT_EQ(*restored->db->ReadCommitted(2), 20) << RecoveryModeName(mode);
    EXPECT_EQ(*restored->db->ReadCommitted(3), 0) << RecoveryModeName(mode);
  }

  // Sharded engines still refuse (Backup itself is single-shard only).
  Options sharded;
  sharded.num_shards = 2;
  EXPECT_TRUE(Database::OpenFromBackup(sharded, *backup)
                  .status()
                  .IsNotSupported());

  // The legacy in-place sequence keeps working as a tested wrapper.
  source.SimulateMediaFailure();
  ASSERT_TRUE(source.RestoreFromBackup(*backup).ok());
  ASSERT_TRUE(RestartAndAwait(source).ok());
  EXPECT_EQ(*source.ReadCommitted(1), 10);
  EXPECT_EQ(*source.ReadCommitted(3), 30);  // log survived the media failure
}

TEST(InstantRestartTest, RecoverShimBlocksUnderInstantMode) {
  Database db(InstantOptions());
  std::map<ObjectId, int64_t> truth = BuildClusteredHistory(&db, 3, 16);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  db.SimulateCrash();
  EXPECT_TRUE(db.NeedsRecovery());
  // The deprecated shim starts the instant restart and Await()s it.
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(db.NeedsRecovery());
  ASSERT_NE(db.recovery_handle(), nullptr);
  EXPECT_TRUE(db.recovery_handle()->done());
  for (const auto& [ob, expected] : truth) {
    EXPECT_EQ(*db.ReadCommitted(ob), expected) << "ob " << ob;
  }
}

TEST(InstantRestartTest, StartRecoveryExposesTheLiveHandle) {
  Database db(InstantOptions());
  BuildClusteredHistory(&db, 2, 12);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  db.SimulateCrash();
  EXPECT_EQ(db.recovery_handle(), nullptr);  // cleared by the crash
  Result<std::shared_ptr<RecoveryHandle>> handle = db.StartRecovery();
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ(db.recovery_handle(), *handle);
  // The database is live immediately; the handle reaches terminal state.
  TxnId t = *db.Begin();
  const ObjectId fresh = static_cast<ObjectId>(1) << 22;
  ASSERT_TRUE(db.Set(t, fresh, 5).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  ASSERT_TRUE((*handle)->Await().ok());
  EXPECT_EQ(*db.ReadCommitted(fresh), 5);
}

// Outcome's work counts come from the restart's own passes, not from the
// engine-wide Stats cells that every shard's restart and every foreground
// abort feed. Reopening one two-shard image reports the same
// records_undone every time, in either mode, and it equals the CLRs the
// restart appended — also when foreground transactions abort while the
// background undo still runs (random log reads stall, to keep it running).
TEST(InstantRestartTest, OutcomeCountsTheRestartsOwnClrs) {
  const std::string path = TempPath("outcome_counts");
  {
    Database db(InstantOptions(2));
    BuildClusteredHistory(&db, 8, 40);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  // Where each shard's log ended before any restart appended to it.
  std::vector<Lsn> saved_end;
  Stats scratch_stats;
  for (size_t s = 0; s < 2; ++s) {
    Result<SimulatedDisk> disk = SimulatedDisk::LoadFrom(
        Database::ShardImagePath(path, s), &scratch_stats);
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    saved_end.push_back(disk->stable_end_lsn());
  }
  std::optional<uint64_t> first;
  for (RecoveryMode mode : {RecoveryMode::kInstant, RecoveryMode::kFull}) {
    Options options = InstantOptions(2);
    options.recovery_mode = mode;
    options.sim_log_random_read_ns = 1000 * 1000;
    for (int round = 0; round < 5; ++round) {
      Result<Database::OpenResult> opened = Database::Open(options, path);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      Database& db = *opened->db;
      // Foreground aborts on objects outside every loser cluster, writing
      // CLRs of their own.
      const TxnId first_new = *db.Begin();
      ASSERT_TRUE(db.Abort(first_new).ok());
      for (int i = 0; i < 10; ++i) {
        const TxnId t = *db.Begin();
        for (ObjectId ob = 1 << 22; ob < (1 << 22) + 4; ++ob) {
          ASSERT_TRUE(db.Add(t, ob, 1).ok());
        }
        ASSERT_TRUE(db.Abort(t).ok());
      }
      Result<RecoveryManager::Outcome> outcome = opened->recovery->Await();
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      // The restart's CLRs are the ones written for pre-restart losers.
      uint64_t clrs = 0;
      for (size_t s = 0; s < 2; ++s) {
        LogManager* log = db.shard(s)->log_manager();
        for (Lsn lsn = saved_end[s] + 1; lsn <= log->end_lsn(); ++lsn) {
          Result<LogRecord> rec = log->Read(lsn);
          ASSERT_TRUE(rec.ok()) << rec.status().ToString();
          if ((rec->type == LogRecordType::kClr ||
               rec->type == LogRecordType::kTableClr) &&
              rec->txn_id < first_new) {
            ++clrs;
          }
        }
      }
      EXPECT_GT(clrs, 0u);
      EXPECT_EQ(outcome->records_undone, clrs)
          << RecoveryModeName(mode) << " round " << round;
      if (!first.has_value()) first = outcome->records_undone;
      EXPECT_EQ(outcome->records_undone, *first)
          << RecoveryModeName(mode) << " round " << round;
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".shard1").c_str());
  std::remove((path + ".coord").c_str());
}

}  // namespace
}  // namespace ariesrh
