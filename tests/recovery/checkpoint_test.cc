#include "recovery/checkpoint.h"

#include <gtest/gtest.h>

#include <thread>

#include "core/database.h"
#include "wal/log_record.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

TEST(CheckpointDataTest, SerializeDeserializeRoundTrip) {
  CheckpointData data;
  data.next_txn_id = 17;
  CheckpointData::TxnSnapshot snap;
  snap.id = 3;
  snap.first_lsn = 10;
  snap.last_lsn = 42;
  ObjectEntry entry;
  entry.delegated_from = 2;
  entry.has_set_update = true;
  entry.scopes = {{2, 11, 15, false}, {3, 20, 41, true}};
  snap.ob_list[7] = entry;
  data.active_txns.push_back(snap);
  data.dirty_pages = {{0, 12}, {5, 30}};

  Result<CheckpointData> back = CheckpointData::Deserialize(data.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->next_txn_id, 17u);
  ASSERT_EQ(back->active_txns.size(), 1u);
  const auto& txn = back->active_txns[0];
  EXPECT_EQ(txn.id, 3u);
  EXPECT_EQ(txn.first_lsn, 10u);
  EXPECT_EQ(txn.last_lsn, 42u);
  ASSERT_TRUE(txn.ob_list.contains(7));
  EXPECT_EQ(txn.ob_list.at(7).delegated_from, 2u);
  EXPECT_TRUE(txn.ob_list.at(7).has_set_update);
  EXPECT_EQ(txn.ob_list.at(7).scopes,
            (std::vector<Scope>{{2, 11, 15, false}, {3, 20, 41, true}}));
  EXPECT_EQ(back->dirty_pages, data.dirty_pages);
}

TEST(CheckpointDataTest, EmptySnapshotRoundTrip) {
  CheckpointData data;
  Result<CheckpointData> back = CheckpointData::Deserialize(data.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->active_txns.empty());
  EXPECT_TRUE(back->dirty_pages.empty());
}

TEST(CheckpointDataTest, TruncatedPayloadRejected) {
  CheckpointData data;
  data.next_txn_id = 5;
  data.dirty_pages = {{1, 2}};
  std::string payload = data.Serialize();
  for (size_t keep = 0; keep < payload.size(); ++keep) {
    EXPECT_FALSE(
        CheckpointData::Deserialize(payload.substr(0, keep)).ok())
        << "kept " << keep;
  }
}

TEST(CheckpointDataTest, RoundTripPreservesBeginLsn) {
  CheckpointData data;
  data.ckpt_begin_lsn = 77;
  data.next_txn_id = 9;
  Result<CheckpointData> back = CheckpointData::Deserialize(data.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ckpt_begin_lsn, 77u);
  EXPECT_EQ(back->AnalysisStart(100), 77u);
  EXPECT_EQ(back->RedoStart(100), 77u);  // begin-anchored, no dirty pages
  data.dirty_pages = {{0, 50}};
  EXPECT_EQ(data.RedoStart(100), 50u);  // dirty pages can pull it earlier
}

TEST(CheckpointDataTest, LegacyPayloadWithoutBeginLsnDecodes) {
  // A v1 payload is exactly a v3 payload minus the marker byte, the version
  // byte, the (one-byte, when zero) begin-LSN varint, and the per-txn
  // (one-byte, when zero) prepared_csn varint.
  CheckpointData data;
  data.next_txn_id = 17;  // >= 1, so the v1 payload cannot start with 0x00
  CheckpointData::TxnSnapshot snap;
  snap.id = 3;
  snap.first_lsn = 10;
  snap.last_lsn = 42;
  data.active_txns.push_back(snap);
  data.dirty_pages = {{2, 30}};
  std::string v1 = data.Serialize().substr(3);
  // Layout: next_txn_id, txn count, id, first, last, prepared_csn, ... —
  // all single-byte varints here, so prepared_csn sits at offset 5.
  v1.erase(5, 1);

  Result<CheckpointData> back = CheckpointData::Deserialize(v1);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ckpt_begin_lsn, 0u);  // legacy: no begin anchor
  EXPECT_EQ(back->next_txn_id, 17u);
  ASSERT_EQ(back->active_txns.size(), 1u);
  EXPECT_EQ(back->active_txns[0].id, 3u);
  EXPECT_EQ(back->dirty_pages, data.dirty_pages);
  // Legacy checkpoints keep the old (window-blind) anchors.
  EXPECT_EQ(back->AnalysisStart(100), 101u);
  EXPECT_EQ(back->RedoStart(100), 30u);
}

TEST(CheckpointDataTest, UnknownFormatVersionRejected) {
  CheckpointData data;
  data.ckpt_begin_lsn = 5;
  std::string payload = data.Serialize();
  payload[1] = 0x04;  // future format version
  EXPECT_TRUE(CheckpointData::Deserialize(payload).status().IsCorruption());
}

TEST(CheckpointDataTest, RedoStartIsMinDirtyRecLsn) {
  CheckpointData data;
  EXPECT_EQ(data.RedoStart(100), 101u);  // no dirty pages
  data.dirty_pages = {{0, 50}, {1, 70}};
  EXPECT_EQ(data.RedoStart(100), 50u);
  data.dirty_pages = {{0, 150}};
  EXPECT_EQ(data.RedoStart(100), 101u);  // dirtied after the checkpoint
}

TEST(CheckpointTest, RecoveryStartsFromCheckpoint) {
  Database db;
  // Committed work before the checkpoint.
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t1, 1, 11).ok());
  ASSERT_TRUE(db.Commit(t1).ok());
  // An active transaction across the checkpoint.
  TxnId t2 = *db.Begin();
  ASSERT_TRUE(db.Set(t2, 2, 22).ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_TRUE(db.Set(t2, 3, 33).ok());

  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_NE(outcome->checkpoint_used, 0u);
  EXPECT_EQ(outcome->losers, 1u);
  EXPECT_EQ(*db.ReadCommitted(1), 11);  // winner survived
  EXPECT_EQ(*db.ReadCommitted(2), 0);   // loser update before ckpt undone
  EXPECT_EQ(*db.ReadCommitted(3), 0);   // loser update after ckpt undone
}

TEST(CheckpointTest, ScopesSurviveThroughCheckpoint) {
  Database db;
  TxnId t0 = *db.Begin();
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t0, 5, 42).ok());
  ASSERT_TRUE(db.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  // Delegation state lives only in the checkpoint now (analysis will not
  // see the delegate record). t1 commits, so the update must survive.
  ASSERT_TRUE(db.Commit(t1).ok());
  ASSERT_TRUE(db.Abort(t0).ok());

  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(5), 42);
}

TEST(CheckpointTest, LoserScopesFromCheckpointAreUndone) {
  Database db;
  TxnId t0 = *db.Begin();
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t0, 5, 42).ok());
  ASSERT_TRUE(db.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_TRUE(db.Commit(t0).ok());  // invoker commits, but...

  db.SimulateCrash();  // ...the delegatee is a loser
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(5), 0);
}

TEST(CheckpointTest, NextTxnIdRestoredFromCheckpoint) {
  Database db;
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Commit(t1).ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  TxnId t2 = *db.Begin();
  EXPECT_GT(t2, t1);
}

// After a restart, an ordinary checkpoint writes back the pages the restart
// redid: its penultimate-checkpoint bound is seeded from the master record
// (the pre-crash checkpoint's CKPT_BEGIN), and every page the restart
// redid is dirty since before that. A second crash's forward pass then
// starts after the first crash's history instead of replaying it again.
TEST(CheckpointTest, CheckpointAfterRestartWritesBackRedonePages) {
  for (RecoveryMode mode : {RecoveryMode::kFull, RecoveryMode::kInstant}) {
    SCOPED_TRACE(RecoveryModeName(mode));
    Options options;
    options.recovery_mode = mode;
    Database db(options);
    for (int i = 0; i < 40; ++i) {
      TxnId t = *db.Begin();
      ASSERT_TRUE(db.Set(t, static_cast<ObjectId>(i * 70), i + 1).ok());
      ASSERT_TRUE(
          db.TablePut(t, "key" + std::to_string(i), "v" + std::to_string(i))
              .ok());
      ASSERT_TRUE(db.Commit(t).ok());
    }
    // No earlier checkpoint: this one writes nothing back.
    ASSERT_TRUE(db.Checkpoint().ok());
    EXPECT_EQ(db.stats().checkpoint_pages_written.value(), 0u);
    const Lsn history_end = db.shard(0)->log_manager()->end_lsn();

    db.SimulateCrash();
    ASSERT_TRUE(RestartAndAwait(db).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
    EXPECT_GT(db.stats().checkpoint_pages_written.value(), 0u);
    EXPECT_TRUE(db.shard(0)->buffer_pool()->DirtyPageTable().empty());
    EXPECT_TRUE(db.shard(0)->table_heap()->DirtyPageTable().empty());

    db.SimulateCrash();
    const uint64_t forward_before = db.stats().recovery_forward_records;
    Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_GT(outcome->checkpoint_used, history_end);
    // Only what the first restart and its checkpoint appended is replayed.
    const uint64_t forward =
        db.stats().recovery_forward_records - forward_before;
    EXPECT_GT(forward, 0u);
    EXPECT_LE(forward, db.shard(0)->log_manager()->end_lsn() - history_end);
    for (int i = 0; i < 40; ++i) {
      EXPECT_EQ(*db.ReadCommitted(static_cast<ObjectId>(i * 70)), i + 1);
      EXPECT_EQ(*db.TableGetCommitted("key" + std::to_string(i)),
                "v" + std::to_string(i));
    }
  }
}

TEST(CheckpointTest, RepeatedCheckpointsUseLatest) {
  Database db;
  for (int round = 0; round < 3; ++round) {
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Set(t, round, round + 1).ok());
    ASSERT_TRUE(db.Commit(t).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  const Lsn master = db.shard(0)->disk()->master_record();
  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->checkpoint_used, master);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(*db.ReadCommitted(round), round + 1);
  }
}

TEST(CheckpointTest, CkptEndCarriesItsBeginLsn) {
  Database db;
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 11).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  const Lsn master = db.shard(0)->disk()->master_record();
  Result<LogRecord> end_rec = db.shard(0)->log_manager()->Read(master);
  ASSERT_TRUE(end_rec.ok());
  Result<CheckpointData> data =
      CheckpointData::Deserialize(end_rec->ckpt_payload);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  // Quiescent checkpoint: CKPT_BEGIN immediately precedes CKPT_END.
  EXPECT_EQ(data->ckpt_begin_lsn, master - 1);
  EXPECT_EQ(data->AnalysisStart(master), master - 1);
}

// The fuzzy window, made deterministic: the checkpoint test hooks run work
// between CKPT_BEGIN, the table snapshot, and CKPT_END, pinning exactly the
// interleavings the begin-anchored analysis must reconcile.

TEST(CheckpointWindowTest, CommitInsideWindowSurvives) {
  // The protocol bug this PR fixes: a transaction that commits after the
  // fuzzy snapshot but before CKPT_END was seeded as active (the snapshot
  // says so) while its COMMIT record fell outside the old end-anchored scan
  // — so recovery wrongly undid a committed transaction.
  Database db;
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 11).ok());
  Database::CheckpointTestHooks hooks;
  hooks.after_snapshot = [&db, t] { ASSERT_TRUE(db.Commit(t).ok()); };
  db.set_checkpoint_test_hooks(hooks);
  ASSERT_TRUE(db.Checkpoint().ok());
  db.set_checkpoint_test_hooks({});

  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->losers, 0u);
  EXPECT_EQ(*db.ReadCommitted(1), 11);
}

TEST(CheckpointWindowTest, CommitParkedAcrossCkptBeginSurvives) {
  // Under group commit a committer appends its COMMIT record and then parks
  // until the flusher's force covers it — still kActive. A checkpoint that
  // begins meanwhile must not seed it as active: its COMMIT lies before
  // CKPT_BEGIN, so analysis would never see it and restart would undo an
  // acknowledged commit (and ArchiveLog, no longer pinned by it once it
  // finishes, may drop the records that undo would read).
  Options options;
  options.group_commit = true;
  options.group_commit_window_us = 20000;  // keeps the committer parked
  Database db(options);
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 11).ok());
  const Lsn before_commit = db.shard(0)->log_manager()->end_lsn();
  Status committed;
  std::thread committer([&db, &committed, t] { committed = db.Commit(t); });
  while (db.shard(0)->log_manager()->end_lsn() == before_commit) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(db.Checkpoint().ok());
  committer.join();
  ASSERT_TRUE(committed.ok()) << committed.ToString();

  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->losers, 0u);
  EXPECT_EQ(*db.ReadCommitted(1), 11);
}

TEST(CheckpointWindowTest, AbortInsideWindowStaysAborted) {
  Database db;
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 11).ok());
  Database::CheckpointTestHooks hooks;
  hooks.after_snapshot = [&db, t] { ASSERT_TRUE(db.Abort(t).ok()); };
  db.set_checkpoint_test_hooks(hooks);
  ASSERT_TRUE(db.Checkpoint().ok());
  db.set_checkpoint_test_hooks({});

  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->losers, 0u);  // resolved before the crash
  EXPECT_EQ(*db.ReadCommitted(1), 0);
}

TEST(CheckpointWindowTest, UpdateInsideWindowBySnapshottedLoserIsUndone) {
  // A snapshotted transaction writes a fresh object inside the window,
  // after the snapshot: the scope exists in neither the snapshot nor the
  // old end-anchored scan. The window re-scan must extend the transaction's
  // Ob_List or undo misses the update entirely.
  Database db;
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 11).ok());
  Database::CheckpointTestHooks hooks;
  hooks.after_snapshot = [&db, t] { ASSERT_TRUE(db.Set(t, 2, 22).ok()); };
  db.set_checkpoint_test_hooks(hooks);
  ASSERT_TRUE(db.Checkpoint().ok());
  db.set_checkpoint_test_hooks({});

  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->losers, 1u);
  EXPECT_EQ(*db.ReadCommitted(1), 0);
  EXPECT_EQ(*db.ReadCommitted(2), 0);  // the window update is rolled back
}

TEST(CheckpointWindowTest, UpdateInsideWindowThenCommitSurvives) {
  Database db;
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 11).ok());
  Database::CheckpointTestHooks hooks;
  hooks.after_snapshot = [&db, t] { ASSERT_TRUE(db.Set(t, 2, 22).ok()); };
  db.set_checkpoint_test_hooks(hooks);
  ASSERT_TRUE(db.Checkpoint().ok());
  db.set_checkpoint_test_hooks({});
  ASSERT_TRUE(db.Commit(t).ok());

  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 11);
  EXPECT_EQ(*db.ReadCommitted(2), 22);
}

TEST(CheckpointWindowTest, BeginInsideWindowIsRecovered) {
  // A transaction born inside the window is invisible to the snapshot (and
  // to next_txn_id in it); the re-scan must discover it and recovery must
  // not hand its id out again.
  Database db;
  TxnId inside = 0;
  Database::CheckpointTestHooks hooks;
  hooks.after_snapshot = [&db, &inside] {
    inside = *db.Begin();
    ASSERT_TRUE(db.Set(inside, 3, 33).ok());
  };
  db.set_checkpoint_test_hooks(hooks);
  ASSERT_TRUE(db.Checkpoint().ok());
  db.set_checkpoint_test_hooks({});

  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->losers, 1u);
  EXPECT_EQ(*db.ReadCommitted(3), 0);
  EXPECT_GT(*db.Begin(), inside);
}

TEST(CheckpointWindowTest, DelegateAfterSnapshotIsReplayed) {
  // The delegation landed after the table snapshot: the snapshot still
  // shows the invoker holding the scope, so the window re-scan must replay
  // the transfer — otherwise the delegatee's commit means nothing and the
  // update is undone with the aborting invoker.
  Database db;
  TxnId t0 = *db.Begin();
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t0, 5, 42).ok());
  Database::CheckpointTestHooks hooks;
  hooks.after_snapshot = [&db, t0, t1] {
    ASSERT_TRUE(db.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
  };
  db.set_checkpoint_test_hooks(hooks);
  ASSERT_TRUE(db.Checkpoint().ok());
  db.set_checkpoint_test_hooks({});
  ASSERT_TRUE(db.Commit(t1).ok());
  ASSERT_TRUE(db.Abort(t0).ok());

  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(5), 42);
}

TEST(CheckpointWindowTest, DelegateBeforeSnapshotIsNotReplayedTwice) {
  // The delegation landed before the table snapshot: the snapshot already
  // shows the delegatee holding the scope. Re-scanning the window sees the
  // DELEGATE record again; reconciliation must recognize it as reflected
  // and leave the (already-correct) Ob_Lists alone.
  Database db;
  TxnId t0 = *db.Begin();
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t0, 5, 42).ok());
  Database::CheckpointTestHooks hooks;
  hooks.after_begin = [&db, t0, t1] {
    ASSERT_TRUE(db.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
  };
  db.set_checkpoint_test_hooks(hooks);
  ASSERT_TRUE(db.Checkpoint().ok());
  db.set_checkpoint_test_hooks({});
  ASSERT_TRUE(db.Commit(t1).ok());
  ASSERT_TRUE(db.Abort(t0).ok());

  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_EQ(*db.ReadCommitted(5), 42);

  // And the loser flavor: delegatee dies with the scope.
  Database db2;
  TxnId s0 = *db2.Begin();
  TxnId s1 = *db2.Begin();
  ASSERT_TRUE(db2.Set(s0, 5, 42).ok());
  Database::CheckpointTestHooks hooks2;
  hooks2.after_begin = [&db2, s0, s1] {
    ASSERT_TRUE(db2.Delegate(s0, s1, DelegationSpec::Objects({5})).ok());
  };
  db2.set_checkpoint_test_hooks(hooks2);
  ASSERT_TRUE(db2.Checkpoint().ok());
  db2.set_checkpoint_test_hooks({});
  ASSERT_TRUE(db2.Commit(s0).ok());

  db2.SimulateCrash();  // s1 is the loser; the delegated update dies
  ASSERT_TRUE(RestartAndAwait(db2).ok());
  EXPECT_EQ(*db2.ReadCommitted(5), 0);
}

TEST(CheckpointWindowTest, CrashBeforeCkptEndIgnoresTheHalfCheckpoint) {
  // If the crash lands inside the window, CKPT_END never became the master
  // record: recovery must fall back to the previous checkpoint and simply
  // read the window records as ordinary log. Modeled by replaying the log
  // prefix that stops one record short of CKPT_END into a fresh instance.
  Database db;
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 11).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  const Lsn first_master = db.shard(0)->disk()->master_record();

  TxnId t2 = *db.Begin();
  ASSERT_TRUE(db.Set(t2, 2, 22).ok());
  Database::CheckpointTestHooks hooks;
  hooks.after_snapshot = [&db, t2] { ASSERT_TRUE(db.Set(t2, 3, 33).ok()); };
  db.set_checkpoint_test_hooks(hooks);
  ASSERT_TRUE(db.Checkpoint().ok());
  db.set_checkpoint_test_hooks({});
  const Lsn second_master = db.shard(0)->disk()->master_record();
  ASSERT_TRUE(db.Sync().ok());

  Database crashed;
  crashed.SimulateCrash();
  std::vector<std::string> prefix;
  for (Lsn lsn = kFirstLsn; lsn < second_master; ++lsn) {
    Result<std::string> rec = db.shard(0)->disk()->ReadLogRecord(lsn);
    ASSERT_TRUE(rec.ok()) << "LSN " << lsn;
    prefix.push_back(std::move(*rec));
  }
  crashed.shard(0)->disk()->AppendLogRecords(prefix);
  crashed.shard(0)->disk()->SetMasterRecord(first_master);

  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(crashed);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->checkpoint_used, first_master);
  EXPECT_EQ(*crashed.ReadCommitted(1), 11);
  EXPECT_EQ(*crashed.ReadCommitted(2), 0);  // t2 was in flight
  EXPECT_EQ(*crashed.ReadCommitted(3), 0);
}

}  // namespace
}  // namespace ariesrh
