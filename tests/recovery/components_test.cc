// Component-level tests for the recovery machinery: ForwardPass,
// ScopeSweepUndo, ChainUndo, and RewriteHistory driven directly against
// hand-assembled logs, independent of the Database facade.

#include <gtest/gtest.h>

#include "recovery/analysis.h"
#include "recovery/rewrite_baselines.h"
#include "recovery/undo_conventional.h"
#include "recovery/undo_rh.h"
#include "storage/buffer_pool.h"
#include "wal/log_manager.h"

namespace ariesrh {
namespace {

class RecoveryComponentsTest : public ::testing::Test {
 protected:
  RecoveryComponentsTest()
      : disk_(&stats_),
        log_(&disk_, &stats_),
        pool_(&disk_, 16, [this](Lsn lsn) { return log_.Flush(lsn); }),
        sink_(&log_, &pool_, &stats_) {}

  // Appends a record maintaining the per-txn chain by hand.
  Lsn Append(LogRecord rec) {
    const Lsn lsn = log_.Append(std::move(rec));
    return lsn;
  }
  Lsn Begin(TxnId txn) {
    const Lsn lsn = Append(LogRecord::MakeBegin(txn));
    heads_[txn] = lsn;
    return lsn;
  }
  Lsn Update(TxnId txn, ObjectId ob, int64_t before, int64_t after) {
    const Lsn lsn = Append(LogRecord::MakeUpdate(txn, heads_[txn], ob,
                                                 UpdateKind::kSet, before,
                                                 after));
    heads_[txn] = lsn;
    return lsn;
  }
  Lsn Add(TxnId txn, ObjectId ob, int64_t delta) {
    const Lsn lsn = Append(LogRecord::MakeUpdate(txn, heads_[txn], ob,
                                                 UpdateKind::kAdd, 0, delta));
    heads_[txn] = lsn;
    return lsn;
  }
  Lsn Commit(TxnId txn) {
    const Lsn lsn = Append(LogRecord::MakeCommit(txn, heads_[txn]));
    heads_[txn] = lsn;
    return lsn;
  }
  Lsn End(TxnId txn) {
    const Lsn lsn = Append(LogRecord::MakeEnd(txn, heads_[txn]));
    heads_[txn] = lsn;
    return lsn;
  }
  Lsn Delegate(TxnId tor, TxnId tee, std::vector<ObjectId> obs) {
    const Lsn lsn = Append(LogRecord::MakeDelegate(
        tor, tee, heads_[tor], heads_[tee], std::move(obs)));
    heads_[tor] = lsn;
    heads_[tee] = lsn;
    return lsn;
  }

  int64_t CellValue(ObjectId ob) {
    Page* page = *pool_.Fetch(PageOf(ob));
    return page->Get(SlotOf(ob));
  }

  Result<ForwardPassResult> RunForwardPass(
      DelegationMode mode = DelegationMode::kRH) {
    EXPECT_TRUE(log_.FlushAll().ok());
    return ForwardPass(mode, &log_, &pool_, &stats_, nullptr, 0);
  }

  Stats stats_;
  SimulatedDisk disk_;
  LogManager log_;
  BufferPool pool_;
  LoggingUndoSink sink_;
  std::unordered_map<TxnId, Lsn> heads_;
};

TEST_F(RecoveryComponentsTest, ForwardPassRebuildsTxnTable) {
  Begin(1);
  Update(1, 5, 0, 10);
  Commit(1);
  End(1);
  Begin(2);
  Update(2, 6, 0, 20);
  Begin(3);
  Append(LogRecord::MakeAbort(3, heads_[3]));

  Result<ForwardPassResult> fwd = RunForwardPass();
  ASSERT_TRUE(fwd.ok());
  ASSERT_EQ(fwd->txns.size(), 3u);
  EXPECT_TRUE(fwd->txns.at(1).committed);
  EXPECT_TRUE(fwd->txns.at(1).ended);
  EXPECT_FALSE(fwd->txns.at(1).IsLoser());
  EXPECT_TRUE(fwd->txns.at(2).IsLoser());
  EXPECT_TRUE(fwd->txns.at(3).aborting);
  EXPECT_TRUE(fwd->txns.at(3).IsLoser());
  EXPECT_EQ(fwd->max_txn_id, 3u);
  EXPECT_EQ(fwd->scan_end, log_.flushed_lsn());
}

TEST_F(RecoveryComponentsTest, ForwardPassRedoesUpdates) {
  Begin(1);
  Update(1, 5, 0, 42);
  Add(1, 6, 7);
  Commit(1);
  Result<ForwardPassResult> fwd = RunForwardPass();
  ASSERT_TRUE(fwd.ok());
  EXPECT_EQ(CellValue(5), 42);
  EXPECT_EQ(CellValue(6), 7);
  EXPECT_EQ(stats_.recovery_redos, 2u);
}

TEST_F(RecoveryComponentsTest, RedoIsPageLsnIdempotent) {
  Begin(1);
  const Lsn update = Update(1, 5, 0, 42);
  Commit(1);
  // Pre-install the page as if it had been flushed after the update.
  Page* page = *pool_.Fetch(PageOf(5));
  page->Set(SlotOf(5), 42);
  page->set_page_lsn(update);
  pool_.MarkDirty(PageOf(5), update);
  ASSERT_TRUE(pool_.FlushAll().ok());
  pool_.Reset();

  Result<ForwardPassResult> fwd = RunForwardPass();
  ASSERT_TRUE(fwd.ok());
  EXPECT_EQ(stats_.recovery_redos, 0u);  // page already reflected it
  EXPECT_EQ(CellValue(5), 42);
}

TEST_F(RecoveryComponentsTest, ForwardPassReconstructsScopes) {
  Begin(1);
  Begin(2);
  const Lsn u1 = Add(1, 5, 10);
  const Lsn u2 = Add(1, 5, 20);
  Delegate(1, 2, {5});
  const Lsn u3 = Add(1, 5, 30);  // new scope after delegation

  Result<ForwardPassResult> fwd = RunForwardPass();
  ASSERT_TRUE(fwd.ok());
  const TxnAnalysis& t1 = fwd->txns.at(1);
  const TxnAnalysis& t2 = fwd->txns.at(2);
  ASSERT_TRUE(t2.ob_list.contains(5));
  ASSERT_EQ(t2.ob_list.at(5).scopes.size(), 1u);
  EXPECT_EQ(t2.ob_list.at(5).scopes[0], (Scope{1, u1, u2, false}));
  EXPECT_EQ(t2.ob_list.at(5).delegated_from, 1u);
  ASSERT_TRUE(t1.ob_list.contains(5));
  EXPECT_EQ(t1.ob_list.at(5).scopes[0], (Scope{1, u3, u3, true}));
}

TEST_F(RecoveryComponentsTest, ForwardPassCollectsCompensatedSet) {
  Begin(1);
  const Lsn u1 = Add(1, 5, 10);
  // Hand-written CLR compensating u1.
  Append(LogRecord::MakeClr(1, heads_[1], 5, UpdateKind::kAdd, 10, -10, u1,
                            kInvalidLsn));
  Result<ForwardPassResult> fwd = RunForwardPass();
  ASSERT_TRUE(fwd.ok());
  EXPECT_TRUE(fwd->compensated.contains(u1));
  EXPECT_EQ(CellValue(5), 0);  // update then CLR both redone
}

TEST_F(RecoveryComponentsTest, ScopeSweepUndoRestoresValues) {
  Begin(1);
  const Lsn u1 = Update(1, 5, 0, 10);
  const Lsn u2 = Update(1, 6, 0, 20);
  Result<ForwardPassResult> fwd = RunForwardPass();
  ASSERT_TRUE(fwd.ok());

  std::vector<ScopeUndoTarget> targets = {
      {1, 5, Scope{1, u1, u1, true}},
      {1, 6, Scope{1, u2, u2, true}},
  };
  std::unordered_map<TxnId, Lsn> bc_heads = {{1, heads_[1]}};
  ASSERT_TRUE(ScopeSweepUndo(targets, {}, log_.end_lsn(), &log_, &stats_,
                             &sink_, &bc_heads)
                  .ok());
  EXPECT_EQ(CellValue(5), 0);
  EXPECT_EQ(CellValue(6), 0);
  EXPECT_EQ(stats_.recovery_undos, 2u);
  // The CLRs chain onto t1's backward chain.
  EXPECT_GT(bc_heads[1], u2);
  LogRecord clr = *log_.Read(bc_heads[1]);
  EXPECT_EQ(clr.type, LogRecordType::kClr);
  EXPECT_EQ(clr.txn_id, 1u);
}

TEST_F(RecoveryComponentsTest, ScopeSweepSkipsCompensated) {
  Begin(1);
  const Lsn u1 = Update(1, 5, 0, 10);
  Result<ForwardPassResult> fwd = RunForwardPass();
  ASSERT_TRUE(fwd.ok());
  // Page currently shows 10; a compensated undo must NOT run again.
  std::vector<ScopeUndoTarget> targets = {{1, 5, Scope{1, u1, u1, true}}};
  std::unordered_map<TxnId, Lsn> bc_heads = {{1, heads_[1]}};
  ASSERT_TRUE(ScopeSweepUndo(targets, {u1}, log_.end_lsn(), &log_, &stats_,
                             &sink_, &bc_heads)
                  .ok());
  EXPECT_EQ(CellValue(5), 10);  // untouched
  EXPECT_EQ(stats_.recovery_undos, 0u);
}

TEST_F(RecoveryComponentsTest, ScopeSweepEmptyTargetsIsNoOp) {
  std::unordered_map<TxnId, Lsn> bc_heads;
  EXPECT_TRUE(
      ScopeSweepUndo({}, {}, 0, &log_, &stats_, &sink_, &bc_heads).ok());
}

TEST_F(RecoveryComponentsTest, ScopeSweepCountsSkips) {
  Begin(1);
  const Lsn u1 = Add(1, 5, 10);  // early loser update
  Begin(2);
  for (int i = 0; i < 50; ++i) Add(2, 6, 1);  // long middle
  Commit(2);
  Begin(3);
  const Lsn u3 = Add(3, 7, 30);  // late loser update
  Result<ForwardPassResult> fwd = RunForwardPass();
  ASSERT_TRUE(fwd.ok());

  std::vector<ScopeUndoTarget> targets = {
      {1, 5, Scope{1, u1, u1, true}},
      {3, 7, Scope{3, u3, u3, true}},
  };
  std::unordered_map<TxnId, Lsn> bc_heads = {{1, u1}, {3, u3}};
  const uint64_t examined_before = stats_.recovery_backward_examined;
  ASSERT_TRUE(ScopeSweepUndo(targets, {}, log_.end_lsn(), &log_, &stats_,
                             &sink_, &bc_heads)
                  .ok());
  EXPECT_EQ(stats_.recovery_backward_examined - examined_before, 2u);
  EXPECT_GT(stats_.recovery_backward_skipped, 50u);
}

TEST_F(RecoveryComponentsTest, FullScanUndoMatchesSweepButExaminesAll) {
  Begin(1);
  const Lsn u1 = Add(1, 5, 10);
  Begin(2);
  for (int i = 0; i < 30; ++i) Add(2, 6, 1);
  Commit(2);
  Result<ForwardPassResult> fwd = RunForwardPass();
  ASSERT_TRUE(fwd.ok());

  std::vector<ScopeUndoTarget> targets = {{1, 5, Scope{1, u1, u1, true}}};
  std::unordered_map<TxnId, Lsn> bc_heads = {{1, u1}};
  const uint64_t examined_before = stats_.recovery_backward_examined;
  ASSERT_TRUE(FullScanUndo(targets, {}, log_.end_lsn(), &log_, &stats_,
                           &sink_, &bc_heads)
                  .ok());
  EXPECT_EQ(CellValue(5), 0);
  EXPECT_GT(stats_.recovery_backward_examined - examined_before, 30u);
}

TEST_F(RecoveryComponentsTest, ChainUndoFollowsUndoNext) {
  Begin(1);
  Update(1, 5, 0, 10);
  const Lsn u2 = Update(1, 6, 0, 20);
  // u2 was already undone before the crash: a CLR with undo_next -> u1's
  // prev (i.e., skip straight past u2).
  LogRecord rec = *log_.Read(u2);
  const Lsn clr = Append(LogRecord::MakeClr(1, heads_[1], 6, UpdateKind::kSet,
                                            20, 0, u2, rec.prev_lsn));
  heads_[1] = clr;
  Result<ForwardPassResult> fwd = RunForwardPass(DelegationMode::kDisabled);
  ASSERT_TRUE(fwd.ok());
  // Page state after redo: 5=10, 6=0 (CLR redone).
  std::unordered_map<TxnId, Lsn> bc_heads = {{1, heads_[1]}};
  const uint64_t undos_before = stats_.recovery_undos;
  ASSERT_TRUE(ChainUndo(&log_, &stats_, &sink_, &bc_heads).ok());
  EXPECT_EQ(stats_.recovery_undos - undos_before, 1u);  // only u1
  EXPECT_EQ(CellValue(5), 0);
  EXPECT_EQ(CellValue(6), 0);
}

TEST_F(RecoveryComponentsTest, RewriteHistoryMovesRecordsAndRelinks) {
  Begin(1);
  Begin(2);
  const Lsn a1 = Add(1, 5, 10);   // will move
  const Lsn b1 = Add(2, 9, 1);    // t2's own
  const Lsn a2 = Add(1, 6, 20);   // stays (different object)
  const Lsn a3 = Add(1, 5, 30);   // will move
  ASSERT_TRUE(log_.FlushAll().ok());

  std::unordered_map<TxnId, Lsn> bc_heads = {{1, heads_[1]}, {2, heads_[2]}};
  ASSERT_TRUE(
      RewriteHistory(&log_, &stats_, 1, 2, {5}, &bc_heads).ok());

  // Moved records now claim t2 as writer.
  EXPECT_EQ(log_.Read(a1)->txn_id, 2u);
  EXPECT_EQ(log_.Read(a3)->txn_id, 2u);
  EXPECT_EQ(log_.Read(a2)->txn_id, 1u);

  // t2's chain, walked from its new head, is exactly {a3, b1, a1, begin2}.
  std::vector<Lsn> chain;
  for (Lsn lsn = bc_heads[2]; lsn != kInvalidLsn;) {
    chain.push_back(lsn);
    LogRecord rec = *log_.Read(lsn);
    lsn = rec.type == LogRecordType::kDelegate
              ? rec.tee_bc
              : rec.prev_lsn;
  }
  EXPECT_EQ(chain, (std::vector<Lsn>{a3, b1, a1, 2}));

  // t1's chain holds only its unmoved records.
  std::vector<Lsn> chain1;
  for (Lsn lsn = bc_heads[1]; lsn != kInvalidLsn;) {
    chain1.push_back(lsn);
    lsn = log_.Read(lsn)->prev_lsn;
  }
  EXPECT_EQ(chain1, (std::vector<Lsn>{a2, 1}));

  // Stable rewrites were counted.
  EXPECT_GT(stats_.log_rewrites, 0u);
}

TEST_F(RecoveryComponentsTest, RewriteHistoryNoMatchesIsCheap) {
  Begin(1);
  Begin(2);
  Add(1, 6, 20);
  ASSERT_TRUE(log_.FlushAll().ok());
  std::unordered_map<TxnId, Lsn> bc_heads = {{1, heads_[1]}, {2, heads_[2]}};
  ASSERT_TRUE(RewriteHistory(&log_, &stats_, 1, 2, {5}, &bc_heads).ok());
  EXPECT_EQ(stats_.log_rewrites, 0u);  // nothing matched object 5
  EXPECT_EQ(bc_heads[1], heads_[1]);
  EXPECT_EQ(bc_heads[2], heads_[2]);
}

TEST_F(RecoveryComponentsTest, ForwardPassHandlesRangedDelegates) {
  Begin(1);
  Begin(2);
  const Lsn u1 = Add(1, 5, 10);
  const Lsn u2 = Add(1, 5, 20);
  const Lsn d = Append(LogRecord::MakeDelegateRange(1, 2, heads_[1],
                                                    heads_[2], 5, u2, u2));
  heads_[1] = d;
  heads_[2] = d;
  Result<ForwardPassResult> fwd = RunForwardPass();
  ASSERT_TRUE(fwd.ok());
  const TxnAnalysis& t1 = fwd->txns.at(1);
  const TxnAnalysis& t2 = fwd->txns.at(2);
  ASSERT_TRUE(t1.ob_list.contains(5));
  ASSERT_TRUE(t2.ob_list.contains(5));
  EXPECT_EQ(t1.ob_list.at(5).scopes[0], (Scope{1, u1, u1, false}));
  EXPECT_EQ(t2.ob_list.at(5).scopes[0], (Scope{1, u2, u2, false}));
}

}  // namespace
}  // namespace ariesrh
