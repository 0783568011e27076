// Reenactment feature coverage: time-travel cuts, delegation-aware
// responsibility, isolated transaction replay, transfer chains, archive and
// standby opens — plus the regression pins for the log-inspection bugfix
// sweep (checkpoint-window cuts, loud out-of-range archive cuts).

#include "reenact/reenact.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/database.h"
#include "obs/observability.h"
#include "replication/log_shipping.h"
#include "wal/log_dump.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

using reenact::Reenactor;
using reenact::ReplayResult;
using reenact::ResponsibilityAnswer;
using reenact::StateImage;
using reenact::TransferHop;

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

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name + ".ariesrh";
}

TEST(ReenactStateTest, TailMatchesLiveCommittedState) {
  Database db;
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 10).ok());
  ASSERT_TRUE(db.Add(t, 2, 7).ok());
  ASSERT_TRUE(db.TablePut(t, "alpha", "one").ok());
  ASSERT_TRUE(db.Commit(t).ok());

  Result<StateImage> live = reenact::CaptureCommittedState(&db);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  Result<StateImage> reenacted = db.ReenactStateAt();
  ASSERT_TRUE(reenacted.ok()) << reenacted.status().ToString();
  EXPECT_EQ(live->Serialize(), reenacted->Serialize());
  EXPECT_EQ(reenacted->ValueOf(1), 10);
  EXPECT_EQ(reenacted->ValueOf(2), 7);
  ASSERT_TRUE(reenacted->RecordOf("alpha").has_value());
  EXPECT_EQ(*reenacted->RecordOf("alpha"), "one");
}

TEST(ReenactStateTest, CaptureReadsThePagesInMemoryAndWritesNone) {
  // A four-frame pool over ten pages: some pages are dirty in the pool,
  // some were evicted to the disk. The capture reads both where they are
  // and writes nothing back.
  Options options;
  options.buffer_pool_pages = 4;
  Database db(options);
  TxnId t = *db.Begin();
  for (ObjectId page = 0; page < 10; ++page) {
    ASSERT_TRUE(db.Set(t, page * kObjectsPerPage + 1, 10 + page).ok());
  }
  ASSERT_TRUE(db.TablePut(t, "alpha", "one").ok());
  ASSERT_TRUE(db.Commit(t).ok());

  const uint64_t writes_before = db.shard(0)->stats().page_writes;
  Result<StateImage> live = reenact::CaptureCommittedState(&db);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(db.shard(0)->stats().page_writes, writes_before);
  EXPECT_EQ(live->objects.size(), 10u);
  for (ObjectId page = 0; page < 10; ++page) {
    EXPECT_EQ(live->ValueOf(page * kObjectsPerPage + 1),
              static_cast<int64_t>(10 + page));
  }
  EXPECT_EQ(live->RecordOf("alpha"), std::optional<std::string>("one"));
  Result<StateImage> reenacted = db.ReenactStateAt();
  ASSERT_TRUE(reenacted.ok()) << reenacted.status().ToString();
  EXPECT_EQ(reenacted->Serialize(), live->Serialize());
}

TEST(ReenactStateTest, CutRewindsToPastCommittedState) {
  Database db;
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t1, 1, 10).ok());
  ASSERT_TRUE(db.Commit(t1).ok());
  const Lsn after_first = db.shard(0)->log_manager()->flushed_lsn();
  TxnId t2 = *db.Begin();
  ASSERT_TRUE(db.Set(t2, 1, 20).ok());
  ASSERT_TRUE(db.Set(t2, 3, 30).ok());
  ASSERT_TRUE(db.Commit(t2).ok());

  Result<StateImage> past = db.ReenactStateAt(after_first);
  ASSERT_TRUE(past.ok()) << past.status().ToString();
  EXPECT_EQ(past->ValueOf(1), 10);
  EXPECT_EQ(past->ValueOf(3), 0);  // not yet written at the cut

  Result<StateImage> now = db.ReenactStateAt();
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(now->ValueOf(1), 20);
  EXPECT_EQ(now->ValueOf(3), 30);
}

TEST(ReenactStateTest, UncommittedWorkIsRolledBackAtTheCut) {
  Database db;
  TxnId committed = *db.Begin();
  ASSERT_TRUE(db.Set(committed, 1, 5).ok());
  ASSERT_TRUE(db.Commit(committed).ok());
  TxnId open = *db.Begin();
  ASSERT_TRUE(db.Set(open, 1, 99).ok());
  ASSERT_TRUE(db.TablePut(open, "k", "uncommitted").ok());
  ASSERT_TRUE(db.shard(0)->log_manager()->FlushAll().ok());

  // The open transaction is a loser at the cut: its effects are reenacted
  // away exactly as a crash at this instant would undo them.
  Result<StateImage> state = db.ReenactStateAt();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->ValueOf(1), 5);
  EXPECT_FALSE(state->RecordOf("k").has_value());
  ASSERT_TRUE(db.Abort(open).ok());
}

// kDisabled has no scopes: losers at the cut roll back along their
// backward chains, the same chain undo restart runs — so StateAt and
// ReplayTxn's begin state must equal what a crash at the cut recovers to.
TEST(ReenactStateTest, DisabledModeRollsBackOpenTransactionsLikeRestart) {
  Options options;
  options.delegation_mode = DelegationMode::kDisabled;
  Database db(options);
  TxnId base = *db.Begin();
  ASSERT_TRUE(db.Set(base, 1, 10).ok());
  ASSERT_TRUE(db.Add(base, 2, 5).ok());
  ASSERT_TRUE(db.TablePut(base, "k", "base").ok());
  ASSERT_TRUE(db.Commit(base).ok());
  TxnId open = *db.Begin();  // still open at every cut below
  ASSERT_TRUE(db.Set(open, 1, 99).ok());
  ASSERT_TRUE(db.Add(open, 2, 3).ok());
  ASSERT_TRUE(db.TablePut(open, "k", "open").ok());
  TxnId later = *db.Begin();  // begins while `open` is in flight
  ASSERT_TRUE(db.Add(later, 2, 4).ok());
  ASSERT_TRUE(db.TablePut(later, "z", "later").ok());
  ASSERT_TRUE(db.Commit(later).ok());
  ASSERT_TRUE(db.shard(0)->log_manager()->FlushAll().ok());

  Result<StateImage> reenacted = db.ReenactStateAt();
  ASSERT_TRUE(reenacted.ok()) << reenacted.status().ToString();
  // `later`'s begin state has `open`'s Add rolled back: 5, not 8.
  Result<ReplayResult> replay = db.ReenactReplayTxn(later);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_TRUE(replay->objects.count(2));
  EXPECT_EQ(replay->objects.at(2).first, 5);
  EXPECT_EQ(replay->objects.at(2).second, 9);

  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  Result<StateImage> restarted = reenact::CaptureCommittedState(&db);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_EQ(reenacted->Serialize(), restarted->Serialize());
  EXPECT_EQ(reenacted->ValueOf(1), 10);
  EXPECT_EQ(reenacted->ValueOf(2), 9);
  ASSERT_TRUE(reenacted->RecordOf("k").has_value());
  EXPECT_EQ(*reenacted->RecordOf("k"), "base");
}

// Time travel undoes losers with restart's cluster sweep: between an early
// and a late loser, the winner middle is never read. The source log's reads
// are the forward fold's one read per record plus the two single-record
// clusters.
TEST(ReenactStateTest, StateAtSkipsTheWinnerMiddle) {
  Database db;  // kRH
  TxnId early_loser = *db.Begin();
  ASSERT_TRUE(db.Add(early_loser, 1, 5).ok());
  for (int i = 0; i < 100; ++i) {
    TxnId winner = *db.Begin();
    ASSERT_TRUE(db.Add(winner, 2, 1).ok());
    ASSERT_TRUE(db.Commit(winner).ok());
  }
  TxnId late_loser = *db.Begin();
  ASSERT_TRUE(db.Add(late_loser, 3, 7).ok());
  ASSERT_TRUE(db.shard(0)->log_manager()->FlushAll().ok());
  const Lsn tail = db.shard(0)->log_manager()->flushed_lsn();

  const Stats before = db.stats();
  Result<StateImage> state = db.ReenactStateAt();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  const Stats delta = db.stats().Delta(before);
  EXPECT_LE(delta.log_seq_reads + delta.log_random_reads, tail + 4);
  EXPECT_EQ(state->ValueOf(1), 0);
  EXPECT_EQ(state->ValueOf(2), 100);
  EXPECT_EQ(state->ValueOf(3), 0);
}

TEST(ReenactStateTest, QueriesBumpTheMetrics) {
  Database db;
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 1).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  ASSERT_TRUE(db.ReenactStateAt().ok());
  ASSERT_TRUE(db.ReenactWhodunit(1).ok());
  const obs::Counter* queries =
      db.metrics()->FindCounter("ariesrh_reenact_queries");
  ASSERT_NE(queries, nullptr);
  EXPECT_GE(queries->Value(), 2u);
  const obs::Histogram* latency =
      db.metrics()->FindHistogram("ariesrh_reenact_replay_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->Count(), 2u);
}

TEST(ReenactWhodunitTest, DelegationMovesResponsibility) {
  Database db;
  TxnId tor = *db.Begin();
  TxnId tee = *db.Begin();
  ASSERT_TRUE(db.Set(tor, 7, 70).ok());
  ASSERT_TRUE(db.Delegate(tor, tee, DelegationSpec::Objects({7})).ok());
  ASSERT_TRUE(db.Commit(tee).ok());
  ASSERT_TRUE(db.Commit(tor).ok());

  Result<ResponsibilityAnswer> answer = db.ReenactWhodunit(7);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->writer, tor);  // the record still names the invoker
  EXPECT_EQ(answer->responsible, tee);
  EXPECT_TRUE(answer->responsible_committed);
  EXPECT_TRUE(answer->delegated);
  ASSERT_EQ(answer->chain.size(), 1u);
  EXPECT_EQ(answer->chain[0].from, tor);
  EXPECT_EQ(answer->chain[0].to, tee);
  EXPECT_TRUE(answer->chain[0].applied);
  // Live opens cite the still-buffered trace events for the same history.
  EXPECT_FALSE(answer->trace_citations.empty());
}

TEST(ReenactWhodunitTest, UndelegatedWriteAnswersForItself) {
  Database db;
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 3, 33).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  Result<ResponsibilityAnswer> answer = db.ReenactWhodunit(3);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->writer, t);
  EXPECT_EQ(answer->responsible, t);
  EXPECT_FALSE(answer->delegated);
  EXPECT_TRUE(answer->chain.empty());
}

TEST(ReenactWhodunitTest, OpenTransactionReportsUncommitted) {
  Database db;
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 4, 44).ok());
  ASSERT_TRUE(db.shard(0)->log_manager()->FlushAll().ok());
  Result<ResponsibilityAnswer> answer = db.ReenactWhodunit(4);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->responsible, t);
  EXPECT_FALSE(answer->responsible_committed);
  EXPECT_FALSE(answer->responsible_terminated);
  ASSERT_TRUE(db.Commit(t).ok());
}

TEST(ReenactWhodunitTest, TableKeyResolvesThroughTheSameIndex) {
  Database db;
  TxnId tor = *db.Begin();
  TxnId tee = *db.Begin();
  ASSERT_TRUE(db.TablePut(tor, "acct", "100").ok());
  ASSERT_TRUE(db.Delegate(tor, tee, DelegationSpec::All()).ok());
  ASSERT_TRUE(db.Commit(tee).ok());
  ASSERT_TRUE(db.Commit(tor).ok());
  Result<ResponsibilityAnswer> answer = db.ReenactWhodunitKey("acct");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->key, "acct");
  EXPECT_EQ(answer->writer, tor);
  EXPECT_EQ(answer->responsible, tee);
  EXPECT_TRUE(answer->delegated);
}

TEST(ReenactReplayTest, FootprintDiffAgainstBeginState) {
  Database db;
  TxnId t0 = *db.Begin();
  ASSERT_TRUE(db.Set(t0, 1, 10).ok());
  ASSERT_TRUE(db.TablePut(t0, "k", "old").ok());
  ASSERT_TRUE(db.Commit(t0).ok());
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Add(t1, 1, 5).ok());
  ASSERT_TRUE(db.Set(t1, 2, 20).ok());
  ASSERT_TRUE(db.TablePut(t1, "k", "new").ok());
  ASSERT_TRUE(db.Commit(t1).ok());
  TxnId t2 = *db.Begin();  // later history must not leak into t1's replay
  ASSERT_TRUE(db.Set(t2, 1, 999).ok());
  ASSERT_TRUE(db.Commit(t2).ok());

  Result<ReplayResult> replay = db.ReenactReplayTxn(t1);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->txn, t1);
  ASSERT_TRUE(replay->objects.count(1));
  EXPECT_EQ(replay->objects.at(1).first, 10);   // before: t0's commit
  EXPECT_EQ(replay->objects.at(1).second, 15);  // after: +5, not t2's 999
  ASSERT_TRUE(replay->objects.count(2));
  EXPECT_EQ(replay->objects.at(2).first, 0);
  EXPECT_EQ(replay->objects.at(2).second, 20);
  ASSERT_TRUE(replay->records.count("k"));
  ASSERT_TRUE(replay->records.at("k").first.has_value());
  EXPECT_EQ(*replay->records.at("k").first, "old");
  ASSERT_TRUE(replay->records.at("k").second.has_value());
  EXPECT_EQ(*replay->records.at("k").second, "new");
}

TEST(ReenactReplayTest, UnknownTransactionIsNotFound) {
  Database db;
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 1).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  EXPECT_TRUE(db.ReenactReplayTxn(t + 100).status().IsNotFound());
}

TEST(ReenactChainTest, CrossShardDelegationSpansACrash) {
  // Acceptance pin: whodunit/chain resolve a cross-shard delegation whose
  // csn-stamped legs span a crash. The transfer is a coordinator round; the
  // crash forgets nothing because both legs and the verdict are durable.
  Database db(ShardedOptions(2));
  const ObjectId a = ObOnShard(db, 0);
  const ObjectId b = ObOnShard(db, 1);
  TxnId tor = *db.Begin();
  TxnId tee = *db.Begin();
  ASSERT_TRUE(db.Set(tor, a, 11).ok());
  ASSERT_TRUE(db.Set(tor, b, 22).ok());
  ASSERT_TRUE(db.Delegate(tor, tee, DelegationSpec::Objects({a, b})).ok());
  ASSERT_TRUE(db.Commit(tee).ok());
  ASSERT_TRUE(db.Commit(tor).ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());

  Result<std::vector<TransferHop>> chain = db.ReenactTransferChain(a);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  // The home-shard leg mentioning `a` plus the same round's leg on the
  // other shard, tied together by the coordinator's csn.
  ASSERT_EQ(chain->size(), 2u);
  EXPECT_NE((*chain)[0].csn, 0u);
  EXPECT_EQ((*chain)[0].csn, (*chain)[1].csn);
  EXPECT_NE((*chain)[0].shard, (*chain)[1].shard);
  for (const TransferHop& hop : *chain) {
    EXPECT_EQ(hop.from, tor);
    EXPECT_EQ(hop.to, tee);
    EXPECT_FALSE(hop.voided);
  }

  Result<ResponsibilityAnswer> answer = db.ReenactWhodunit(a);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->writer, tor);
  EXPECT_EQ(answer->responsible, tee);
  EXPECT_TRUE(answer->responsible_committed);
  EXPECT_TRUE(answer->delegated);
}

TEST(ReenactChainTest, VoidedCrossShardLegIsMarked) {
  // A csn-stamped transfer round that never reached the coordinator's
  // commit point is presumed aborted at restart: the legs are voided and
  // responsibility stays with the delegator.
  Database db(ShardedOptions(2));
  const ObjectId a = ObOnShard(db, 0);
  const ObjectId b = ObOnShard(db, 1);
  TxnId tor = *db.Begin();
  TxnId tee = *db.Begin();
  ASSERT_TRUE(db.Set(tor, a, 1).ok());
  ASSERT_TRUE(db.Set(tor, b, 2).ok());
  db.set_test_hook([](std::string_view point) {
    return point == "xdel:before-decision"
               ? Status::IllegalState("crash injected before the decision")
               : Status::OK();
  });
  ASSERT_FALSE(db.Delegate(tor, tee, DelegationSpec::Objects({a, b})).ok());
  db.set_test_hook(nullptr);
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());

  Result<std::vector<TransferHop>> chain = db.ReenactTransferChain(a);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  for (const TransferHop& hop : *chain) {
    EXPECT_NE(hop.csn, 0u);
    EXPECT_TRUE(hop.voided);
    EXPECT_FALSE(hop.applied);
  }
  // The delegator (a loser at the crash) was undone; nobody answers for a
  // surviving value because none survived.
  Result<ResponsibilityAnswer> answer = db.ReenactWhodunit(a);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->value_lsn, kInvalidLsn);
}

TEST(ReenactArchiveTest, ArchiveOpenAnswersWithoutALiveEngine) {
  const std::string path = TempPath("reenact_archive");
  Options options;
  StateImage expected;
  TxnId tor = 0, tee = 0;
  {
    Database db(options);
    tor = *db.Begin();
    tee = *db.Begin();
    ASSERT_TRUE(db.Set(tor, 1, 10).ok());
    ASSERT_TRUE(db.Delegate(tor, tee, DelegationSpec::Objects({1})).ok());
    ASSERT_TRUE(db.Commit(tee).ok());
    ASSERT_TRUE(db.Commit(tor).ok());
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.TablePut(t, "x", "y").ok());
    ASSERT_TRUE(db.Commit(t).ok());
    expected = *reenact::CaptureCommittedState(&db);
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  Result<Reenactor> opened = Reenactor::OpenArchive(options, path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Result<StateImage> state = opened->StateAt();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->Serialize(), expected.Serialize());
  EXPECT_EQ(state->ValueOf(1), 10);
  Result<ResponsibilityAnswer> answer = opened->ResponsibleFor(1);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->writer, tor);
  EXPECT_EQ(answer->responsible, tee);
}

TEST(ReenactArchiveTest, CutBelowRetainedHistoryFailsLoudly) {
  // Bugfix pin: a cut earlier than the retained history must fail with
  // kOutOfRange naming the earliest replayable LSN — never silently
  // reenact a truncated prefix as if it were the whole story.
  const std::string path = TempPath("reenact_truncated");
  Options options;
  Lsn tail_value = 0;
  {
    Database db(options);
    for (int i = 0; i < 8; ++i) {
      TxnId t = *db.Begin();
      ASSERT_TRUE(db.Add(t, 1, 1).ok());
      ASSERT_TRUE(db.Commit(t).ok());
    }
    ASSERT_TRUE(db.shard(0)->buffer_pool()->FlushAll().ok());
    ASSERT_TRUE(db.Checkpoint().ok());
    ASSERT_TRUE(db.ArchiveLog().ok());
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Add(t, 1, 1).ok());
    ASSERT_TRUE(db.Commit(t).ok());
    tail_value = 9;
    ASSERT_TRUE(db.SaveTo(path).ok());

    // The live engine refuses too.
    Result<StateImage> early = db.ReenactStateAt(1);
    ASSERT_FALSE(early.ok());
    EXPECT_TRUE(early.status().IsOutOfRange())
        << early.status().ToString();
  }
  Result<Reenactor> opened = Reenactor::OpenArchive(options, path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_GT(opened->earliest_lsn(0), Lsn{0});
  Result<StateImage> early = opened->StateAt(1);
  ASSERT_FALSE(early.ok());
  EXPECT_TRUE(early.status().IsOutOfRange()) << early.status().ToString();
  // The error names the earliest replayable cut so the caller can retry.
  EXPECT_NE(early.status().ToString().find(
                std::to_string(opened->earliest_lsn(0))),
            std::string::npos)
      << early.status().ToString();
  // At or after the anchor the archive answers exactly.
  Result<StateImage> at_tail = opened->StateAt();
  ASSERT_TRUE(at_tail.ok()) << at_tail.status().ToString();
  EXPECT_EQ(at_tail->ValueOf(1), tail_value);
}

TEST(ReenactArchiveTest, AnchoredReplayDoesNotDoubleApplyBasePages) {
  // After an archive the replay anchors at the checkpoint's page image and
  // re-walks the retained window; page-LSN checks must keep records already
  // reflected in the base pages from applying twice. kAdd deltas make any
  // double-apply arithmetic-visible.
  Database db;
  for (int i = 0; i < 6; ++i) {
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Add(t, 1, 1).ok());
    ASSERT_TRUE(db.Commit(t).ok());
  }
  ASSERT_TRUE(db.shard(0)->buffer_pool()->FlushAll().ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_TRUE(db.ArchiveLog().ok());
  for (int i = 0; i < 3; ++i) {
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Add(t, 1, 1).ok());
    ASSERT_TRUE(db.Commit(t).ok());
  }
  Result<StateImage> state = db.ReenactStateAt();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->ValueOf(1), 9);
}

/// Commits plain-object adds and table puts, then checkpoints and archives
/// the log prefix, so a reenactor anchors at the stable pages.
void BuildAnchoredHistory(Database* db) {
  for (int i = 0; i < 6; ++i) {
    TxnId t = *db->Begin();
    ASSERT_TRUE(db->Add(t, 1 + i * kObjectsPerPage, 1).ok());
    ASSERT_TRUE(db->TablePut(t, "k" + std::to_string(i), "v").ok());
    ASSERT_TRUE(db->Commit(t).ok());
  }
  ASSERT_TRUE(db->shard(0)->buffer_pool()->FlushAll().ok());
  ASSERT_TRUE(db->shard(0)->table_heap()->FlushAll().ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(db->ArchiveLog().ok());
  ASSERT_GT(db->shard(0)->disk()->first_retained_lsn(), kFirstLsn);
}

TEST(ReenactArchiveTest, CorruptBasePageFailsTheOpen) {
  // An anchored open reads each base page's LSN from its header; the CRC
  // over the whole image is still checked, so one flipped byte anywhere in
  // a plain or a heap page fails the open with Corruption.
  for (const bool heap_page : {false, true}) {
    SCOPED_TRACE(heap_page ? "heap page" : "plain page");
    const std::string path = TempPath("reenact_corrupt_base");
    Options options;
    Database db(options);
    BuildAnchoredHistory(&db);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    SimulatedDisk* disk = db.shard(0)->disk();
    const std::vector<PageId> ids = disk->StablePageIds();
    const auto victim =
        std::find_if(ids.begin(), ids.end(), [heap_page](PageId id) {
          return (id >= table::kHeapPageBase) == heap_page;
        });
    ASSERT_NE(victim, ids.end());
    std::string image = **disk->ReadPage(*victim);
    image[image.size() / 2] ^= 0x10;
    ASSERT_TRUE(disk->WritePage(*victim, std::move(image)).ok());

    Result<Reenactor> live = Reenactor::OpenLive(&db);
    ASSERT_FALSE(live.ok());
    EXPECT_TRUE(live.status().IsCorruption()) << live.status().ToString();
    ASSERT_TRUE(db.SaveTo(path).ok());
    Result<Reenactor> archive = Reenactor::OpenArchive(options, path);
    ASSERT_FALSE(archive.ok());
    EXPECT_TRUE(archive.status().IsCorruption())
        << archive.status().ToString();
  }
}

TEST(ReenactLiveTest, SnapshotDoesNotMoveWhenTheEngineWritesBack) {
  // An anchored live reenactor shares the engine's page images. Commits,
  // a checkpoint and a write-back after the open install new images on the
  // engine's disk; the reenactor's snapshot keeps the ones it saw, so the
  // same cut reenacts byte for byte the same state.
  Database db;
  BuildAnchoredHistory(&db);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  Result<Reenactor> r = Reenactor::OpenLive(&db);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Lsn cut = r->tail_lsn(0);
  Result<StateImage> first = r->StateAt(cut);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->ValueOf(1), 1);

  for (int i = 0; i < 6; ++i) {
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Add(t, 1 + i * kObjectsPerPage, 100).ok());
    ASSERT_TRUE(db.TablePut(t, "k" + std::to_string(i), "later").ok());
    ASSERT_TRUE(db.TablePut(t, "new" + std::to_string(i), "x").ok());
    ASSERT_TRUE(db.Commit(t).ok());
  }
  const uint64_t writes_before = db.shard(0)->stats().page_writes;
  ASSERT_TRUE(db.shard(0)->buffer_pool()->FlushAll().ok());
  ASSERT_TRUE(db.shard(0)->table_heap()->FlushAll().ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_GT(db.shard(0)->stats().page_writes, writes_before);

  Result<StateImage> again = r->StateAt(cut);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->Serialize(), first->Serialize());
  EXPECT_EQ(again->ValueOf(1), 1);
}

TEST(ReenactCheckpointTest, CutsInsideTheCheckpointWindowAreExact) {
  // Bugfix pin for the fuzzy-window audit: commits land between CKPT_BEGIN
  // and CKPT_END (before and after the snapshot), and StateAt cut inside
  // the window must neither double-apply records the snapshot already
  // reflects nor skip records it does not. kAdd deltas expose either
  // failure arithmetically.
  Database db;
  auto committed_add = [&db](int64_t delta) {
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Add(t, 1, delta).ok());
    ASSERT_TRUE(db.Commit(t).ok());
  };
  committed_add(1);
  db.set_test_hook([&](std::string_view point) {
    if (point == "checkpoint:after-begin:0") committed_add(10);
    if (point == "checkpoint:after-snapshot:0") committed_add(100);
    return Status::OK();
  });
  ASSERT_TRUE(db.Checkpoint().ok());
  db.set_test_hook(nullptr);
  committed_add(1000);

  // Walk the object's history and reenact a cut right before each add: the
  // value must be the exact prefix sum at every cut depth.
  Result<std::vector<ObjectHistoryEntry>> history =
      ObjectHistory(*db.shard(0)->log_manager(), 1);
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  ASSERT_EQ(history->size(), 4u);
  const int64_t prefix_sums[] = {0, 1, 11, 111};
  for (size_t i = 0; i < history->size(); ++i) {
    Result<StateImage> before = db.ReenactStateAt((*history)[i].lsn - 1);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    EXPECT_EQ(before->ValueOf(1), prefix_sums[i]) << "cut before add #" << i;
  }
  Result<StateImage> tail = db.ReenactStateAt();
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->ValueOf(1), 1111);
}

TEST(ReenactModeTest, RewritingBaselinesAreRejected) {
  Options options;
  options.delegation_mode = DelegationMode::kEager;
  Database db(options);
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 1).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  // An eagerly rewritten log is not a faithful history; reenactment says so
  // instead of answering from falsified records.
  EXPECT_TRUE(db.ReenactStateAt().status().IsNotSupported());
}

TEST(ReenactModeTest, CrashedEngineMustRecoverFirst) {
  Database db;
  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 1).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  db.SimulateCrash();
  EXPECT_FALSE(db.ReenactStateAt().ok());
  ASSERT_TRUE(RestartAndAwait(db).ok());
  EXPECT_TRUE(db.ReenactStateAt().ok());
}

TEST(ReenactStandbyTest, ShippedLogAnswersPointInTimeQueries) {
  Database primary;
  replication::StandbyReplica standby(primary.options());

  TxnId t1 = *primary.Begin();
  ASSERT_TRUE(primary.Set(t1, 1, 10).ok());
  ASSERT_TRUE(primary.Commit(t1).ok());
  ASSERT_TRUE(standby.SyncFrom(primary).ok());
  const Lsn first_cut = standby.shipped_through();

  TxnId tor = *primary.Begin();
  TxnId tee = *primary.Begin();
  ASSERT_TRUE(primary.Set(tor, 1, 20).ok());
  ASSERT_TRUE(primary.Delegate(tor, tee, DelegationSpec::Objects({1})).ok());
  ASSERT_TRUE(primary.Commit(tee).ok());
  ASSERT_TRUE(primary.Commit(tor).ok());
  ASSERT_TRUE(standby.SyncFrom(primary).ok());

  Result<Reenactor> reenactor = standby.Reenact();
  ASSERT_TRUE(reenactor.ok()) << reenactor.status().ToString();
  Result<StateImage> past = reenactor->StateAt(first_cut);
  ASSERT_TRUE(past.ok()) << past.status().ToString();
  EXPECT_EQ(past->ValueOf(1), 10);
  Result<StateImage> now = reenactor->StateAt();
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(now->ValueOf(1), 20);
  Result<ResponsibilityAnswer> answer = reenactor->ResponsibleFor(1);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->writer, tor);
  EXPECT_EQ(answer->responsible, tee);

  // Reenactment read nothing destructively: the standby still promotes.
  Result<std::unique_ptr<Database>> promoted = std::move(standby).Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(*(*promoted)->ReadCommitted(1), 20);
}

}  // namespace
}  // namespace ariesrh
