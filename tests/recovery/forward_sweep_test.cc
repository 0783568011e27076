// The restart forward pass reads the log through LogCursor: its access
// accounting must equal a point Read per record it consumed — also when a
// redo fault ends a merged pass early — and a corrupt record mid-log fails
// the pass as a point read would.

#include <gtest/gtest.h>

#include <string>

#include "core/database.h"
#include "recovery/analysis.h"
#include "table/table_heap.h"
#include "util/random.h"

namespace ariesrh {
namespace {

void BuildHistory(Database* db) {
  Random rng(29);
  for (int i = 0; i < 300; ++i) {
    const TxnId txn = *db->Begin();
    db->Add(txn, rng.Uniform(1024), 1);
    db->TablePut(txn, "key" + std::to_string(rng.Uniform(64)), "value");
    if (rng.Percent(15)) {
      db->Abort(txn);
    } else {
      db->Commit(txn);
    }
  }
  ASSERT_TRUE(db->Sync().ok());
}

struct ReadCounts {
  uint64_t seq = 0;
  uint64_t random = 0;
  uint64_t bytes = 0;
  bool operator==(const ReadCounts&) const = default;
};

ReadCounts Since(const Stats& now, const Stats& before) {
  const Stats delta = now.Delta(before);
  return {delta.log_seq_reads, delta.log_random_reads, delta.log_bytes_read};
}

class ForwardSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BuildHistory(&db_);
    log_ = db_.shard(0)->log_manager();
  }

  // Moves the disk's last-read position away from the log head, so every
  // sweep starts with the same random first read.
  void Reposition() { ASSERT_TRUE(log_->Read(log_->flushed_lsn()).ok()); }

  // A merged pass into fresh scratch components (every record applies)
  // with a redo fault after `budget` applications; returns the pass status
  // and sets `consumed` to the records it counted.
  Status MergedPass(uint64_t budget, uint64_t* consumed, ReadCounts* counts) {
    Stats scratch_stats;
    SimulatedDisk scratch_disk(&scratch_stats);
    const auto no_wal = [](Lsn) { return Status::OK(); };
    BufferPool pool(&scratch_disk, /*capacity=*/64, no_wal, &scratch_stats);
    table::TableHeap heap(&scratch_disk, &scratch_stats, no_wal);
    RecoveryFaultBudget redo_budget(budget);
    ForwardPassOptions opts;
    opts.kind = ForwardPassKind::kMerged;
    opts.redo_budget = &redo_budget;
    opts.table = &heap;
    Stats pass_stats;
    Reposition();
    const Stats before = db_.stats();
    Result<ForwardPassResult> fwd =
        ForwardPass(DelegationMode::kRH, log_, &pool, &pass_stats,
                    /*ckpt=*/nullptr, /*ckpt_end_lsn=*/0, opts);
    *counts = Since(db_.stats(), before);
    *consumed = pass_stats.recovery_forward_records;
    return fwd.status();
  }

  // The record-at-a-time reference: one point Read per LSN.
  ReadCounts PointReads(Lsn from, Lsn to) {
    Reposition();
    const Stats before = db_.stats();
    for (Lsn lsn = from; lsn <= to; ++lsn) {
      EXPECT_TRUE(log_->Read(lsn).ok());
    }
    return Since(db_.stats(), before);
  }

  // LSN of the n-th record a redo-bearing pass repeats (an UPDATE, a CLR or
  // a logical table record), found by point reads: where a record-at-a-time
  // merged pass stops once a fault budget of n - 1 runs out.
  Lsn NthRedoRecord(uint64_t n) {
    for (Lsn lsn = kFirstLsn; lsn <= log_->flushed_lsn(); ++lsn) {
      Result<LogRecord> rec = log_->Read(lsn);
      EXPECT_TRUE(rec.ok());
      const bool redo = rec->type == LogRecordType::kUpdate ||
                        rec->type == LogRecordType::kClr ||
                        IsTableRecord(rec->type);
      if (redo && --n == 0) return lsn;
    }
    return kInvalidLsn;
  }

  Database db_;
  LogManager* log_ = nullptr;
};

TEST_F(ForwardSweepTest, AccountingEqualsPointReadsWhenAFaultEndsThePass) {
  for (uint64_t budget : {0, 1, 63, 64, 65, 200, 400}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    uint64_t consumed = 0;
    ReadCounts by_cursor;
    const Status status = MergedPass(budget, &consumed, &by_cursor);
    EXPECT_TRUE(status.IsIOError()) << status.ToString();
    // The pass consumed exactly the records up to the failing one.
    ASSERT_EQ(consumed, NthRedoRecord(budget + 1));
    ASSERT_LT(consumed, log_->flushed_lsn());
    EXPECT_EQ(by_cursor, PointReads(kFirstLsn, consumed));
  }
  // No fault: the whole log.
  uint64_t consumed = 0;
  ReadCounts by_cursor;
  ASSERT_TRUE(MergedPass(1u << 30, &consumed, &by_cursor).ok());
  EXPECT_EQ(consumed, log_->flushed_lsn());
  EXPECT_EQ(by_cursor, PointReads(kFirstLsn, consumed));
}

TEST_F(ForwardSweepTest, CorruptRecordMidLogFailsThePass) {
  const Lsn bad = log_->flushed_lsn() / 2;
  SimulatedDisk* disk = db_.shard(0)->disk();
  std::string image = *disk->ReadLogRecord(bad);
  image[image.size() - 1] = static_cast<char>(~image[image.size() - 1]);
  ASSERT_TRUE(disk->RewriteLogRecord(bad, image).ok());

  Stats stats;
  ForwardPassOptions opts;
  opts.kind = ForwardPassKind::kAnalysisCollectRedo;
  Result<ForwardPassResult> fwd =
      ForwardPass(DelegationMode::kRH, log_, db_.shard(0)->buffer_pool(),
                  &stats, /*ckpt=*/nullptr, /*ckpt_end_lsn=*/0, opts);
  ASSERT_FALSE(fwd.ok());
  EXPECT_TRUE(fwd.status().IsCorruption()) << fwd.status().ToString();
  EXPECT_NE(fwd.status().message().find("LSN " + std::to_string(bad)),
            std::string::npos)
      << fwd.status().ToString();
  // Every record before the corrupt one was swept.
  EXPECT_EQ(stats.recovery_forward_records, bad - 1);
}

}  // namespace
}  // namespace ariesrh
