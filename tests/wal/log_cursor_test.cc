// The sequential read path: LogRecord::DecodeInto into one reused record,
// and LogCursor, whose records and access accounting must equal a point
// Read per record.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/database.h"
#include "table/table_heap.h"
#include "util/random.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace ariesrh {
namespace {

// Every field of the record, so a stale leftover from an earlier decode
// shows even where Serialize() would not write it.
void ExpectSameRecord(const LogRecord& a, const LogRecord& b) {
  EXPECT_EQ(a.lsn, b.lsn);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.txn_id, b.txn_id);
  EXPECT_EQ(a.prev_lsn, b.prev_lsn);
  EXPECT_EQ(a.object, b.object);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.before, b.before);
  EXPECT_EQ(a.after, b.after);
  EXPECT_EQ(a.compensated_lsn, b.compensated_lsn);
  EXPECT_EQ(a.undo_next_lsn, b.undo_next_lsn);
  EXPECT_EQ(a.tor, b.tor);
  EXPECT_EQ(a.tee, b.tee);
  EXPECT_EQ(a.tor_bc, b.tor_bc);
  EXPECT_EQ(a.tee_bc, b.tee_bc);
  EXPECT_EQ(a.objects, b.objects);
  EXPECT_EQ(a.ranges, b.ranges);
  EXPECT_EQ(a.csn, b.csn);
  EXPECT_EQ(a.ckpt_payload, b.ckpt_payload);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.before_image, b.before_image);
  EXPECT_EQ(a.after_image, b.after_image);
  EXPECT_EQ(a.table_remove, b.table_remove);
}

TEST(LogRecordDecodeIntoTest, ReusedRecordKeepsNoStaleFields) {
  LogRecord delegate =
      LogRecord::MakeDelegate(/*tor=*/3, /*tee=*/4, 10, 11, {7, 8, 9});
  delegate.ranges = {{12, 14}, {kInvalidLsn, kInvalidLsn}, {15, 15}};
  delegate.csn = 99;
  delegate.lsn = 20;
  LogRecord table = LogRecord::MakeTableUpdate(5, 19, /*rid=*/77, "key",
                                               "old value", "new value");
  table.lsn = 21;
  LogRecord update = LogRecord::MakeUpdate(6, 18, 42, UpdateKind::kAdd, 0, 5);
  update.lsn = 22;
  LogRecord clr = LogRecord::MakeTableClr(5, 21, 77, "key", /*remove=*/true,
                                          "", /*compensated=*/21, 19);
  clr.lsn = 23;

  LogRecord reused;
  for (const LogRecord* rec : {&delegate, &table, &update, &clr}) {
    const std::string image = rec->Serialize();
    ASSERT_TRUE(
        LogRecord::DecodeInto(image.data(), image.size(), &reused).ok());
    Result<LogRecord> fresh = LogRecord::Deserialize(image);
    ASSERT_TRUE(fresh.ok());
    SCOPED_TRACE(rec->ToString());
    ExpectSameRecord(reused, *fresh);
  }
}

TEST(LogRecordDecodeIntoTest, CorruptImageIsCorruption) {
  LogRecord rec = LogRecord::MakeUpdate(1, kInvalidLsn, 2, UpdateKind::kSet,
                                        0, 1);
  rec.lsn = 1;
  std::string image = rec.Serialize();
  image[2] = static_cast<char>(~image[2]);
  LogRecord out;
  EXPECT_TRUE(
      LogRecord::DecodeInto(image.data(), image.size(), &out).IsCorruption());
  EXPECT_TRUE(LogRecord::DecodeInto(image.data(), 3, &out).IsCorruption());
}

// A single-threaded history of plain and table writes, delegations,
// aborts (CLRs) and a checkpoint, all durable.
void BuildHistory(Database* db, int txns) {
  Random rng(17);
  TxnId partner = kInvalidTxn;
  for (int i = 0; i < txns; ++i) {
    const TxnId txn = *db->Begin();
    db->Add(txn, rng.Uniform(512), 1);
    db->Set(txn, rng.Uniform(512), static_cast<int64_t>(i));
    db->TablePut(txn, "k" + std::to_string(rng.Uniform(100)),
                 std::string(rng.Uniform(40), 'v'));
    if (partner != kInvalidTxn && rng.Percent(20)) {
      db->Delegate(txn, partner, DelegationSpec::All());
    }
    if (rng.Percent(15)) {
      db->Abort(txn);
    } else if (rng.Percent(10)) {
      partner = txn;
    } else {
      db->Commit(txn);
    }
    if (i == txns / 2) {
      ASSERT_TRUE(db->Checkpoint().ok());
    }
  }
  ASSERT_TRUE(db->Sync().ok());
}

struct SweepCounts {
  uint64_t seq = 0;
  uint64_t random = 0;
  uint64_t bytes = 0;
};

SweepCounts CountsSince(const Stats& now, const Stats& before) {
  const Stats delta = now.Delta(before);
  return {delta.log_seq_reads, delta.log_random_reads, delta.log_bytes_read};
}

class LogCursorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BuildHistory(&db_, 400);
    log_ = db_.shard(0)->log_manager();
    ASSERT_GT(log_->flushed_lsn(), 3 * 64u);
  }

  // Puts the disk's last-read position far from the sweep, so each sweep
  // starts with the same (random) first read.
  void Reposition() { ASSERT_TRUE(log_->Read(log_->flushed_lsn() / 2).ok()); }

  Database db_;
  LogManager* log_ = nullptr;
};

TEST_F(LogCursorTest, ForwardSweepMatchesPointReads) {
  const Lsn from = 5;
  const Lsn to = log_->flushed_lsn();

  Reposition();
  Stats before = db_.stats();
  std::vector<std::string> by_read;
  for (Lsn lsn = from; lsn <= to; ++lsn) {
    Result<LogRecord> rec = log_->Read(lsn);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    by_read.push_back(rec->Serialize());
  }
  const SweepCounts read_counts = CountsSince(db_.stats(), before);

  Reposition();
  before = db_.stats();
  StatCounter records;
  std::vector<std::string> by_cursor;
  {
    LogCursor cursor(*log_, from, to);
    cursor.CountRecordsInto(&records);
    while (cursor.Next()) {
      EXPECT_EQ(cursor.record().lsn, cursor.lsn());
      by_cursor.push_back(cursor.record().Serialize());
    }
    ASSERT_TRUE(cursor.status().ok()) << cursor.status().ToString();
  }
  const SweepCounts cursor_counts = CountsSince(db_.stats(), before);

  EXPECT_EQ(by_cursor, by_read);
  EXPECT_EQ(records.value(), by_read.size());
  EXPECT_EQ(cursor_counts.seq, read_counts.seq);
  EXPECT_EQ(cursor_counts.random, read_counts.random);
  EXPECT_EQ(cursor_counts.bytes, read_counts.bytes);
  EXPECT_EQ(cursor_counts.random, 1u);  // the first read only
}

TEST_F(LogCursorTest, BackwardSweepMatchesPointReads) {
  const Lsn from = 3;
  const Lsn to = log_->flushed_lsn() - 2;

  Reposition();
  Stats before = db_.stats();
  std::vector<std::string> by_read;
  for (Lsn lsn = to; lsn >= from; --lsn) {
    Result<LogRecord> rec = log_->Read(lsn);
    ASSERT_TRUE(rec.ok());
    by_read.push_back(rec->Serialize());
  }
  const SweepCounts read_counts = CountsSince(db_.stats(), before);

  Reposition();
  before = db_.stats();
  std::vector<std::string> by_cursor;
  {
    LogCursor cursor(*log_, from, to, LogCursor::Direction::kBackward);
    while (cursor.Next()) by_cursor.push_back(cursor.record().Serialize());
    ASSERT_TRUE(cursor.status().ok());
  }
  const SweepCounts cursor_counts = CountsSince(db_.stats(), before);

  EXPECT_EQ(by_cursor, by_read);
  EXPECT_EQ(cursor_counts.seq, read_counts.seq);
  EXPECT_EQ(cursor_counts.random, read_counts.random);
  EXPECT_EQ(cursor_counts.bytes, read_counts.bytes);
}

// Point reads interleaved between two Next() calls move the disk's read
// position; the cursor classifies its next record against that position,
// exactly as the record-at-a-time loop did.
TEST_F(LogCursorTest, InterleavedPointReadsClassifyAsTheyWould) {
  const Lsn from = 1;
  const Lsn to = 150;
  const auto sweep = [&](bool cursor_sweep) {
    Reposition();
    const Stats before = db_.stats();
    if (cursor_sweep) {
      LogCursor cursor(*log_, from, to);
      while (cursor.Next()) {
        if (cursor.lsn() % 37 == 0) {
          EXPECT_TRUE(log_->Read(to + 100).ok());
        }
      }
      EXPECT_TRUE(cursor.status().ok());
    } else {
      for (Lsn lsn = from; lsn <= to; ++lsn) {
        EXPECT_TRUE(log_->Read(lsn).ok());
        if (lsn % 37 == 0) {
          EXPECT_TRUE(log_->Read(to + 100).ok());
        }
      }
    }
    return CountsSince(db_.stats(), before);
  };
  const SweepCounts by_read = sweep(false);
  const SweepCounts by_cursor = sweep(true);
  EXPECT_EQ(by_cursor.seq, by_read.seq);
  EXPECT_EQ(by_cursor.random, by_read.random);
  EXPECT_EQ(by_cursor.bytes, by_read.bytes);
  EXPECT_EQ(by_read.random, 1u + 2u * (150u / 37u));
}

// A caller that stops early has counted exactly the records it consumed,
// not the rest of the buffered batch.
TEST_F(LogCursorTest, EarlyStopCountsOnlyConsumedRecords) {
  Reposition();
  Stats before = db_.stats();
  for (Lsn lsn = 10; lsn <= 30; ++lsn) ASSERT_TRUE(log_->Read(lsn).ok());
  const SweepCounts by_read = CountsSince(db_.stats(), before);

  Reposition();
  before = db_.stats();
  StatCounter records;
  {
    LogCursor cursor(*log_, 10, log_->flushed_lsn());
    cursor.CountRecordsInto(&records);
    while (cursor.Next() && cursor.lsn() < 30) {
    }
  }
  const SweepCounts by_cursor = CountsSince(db_.stats(), before);
  EXPECT_EQ(records.value(), 21u);
  EXPECT_EQ(by_cursor.seq, by_read.seq);
  EXPECT_EQ(by_cursor.random, by_read.random);
  EXPECT_EQ(by_cursor.bytes, by_read.bytes);
}

TEST_F(LogCursorTest, CorruptRecordMidBatchNamesItsLsn) {
  const Lsn bad = 100;  // in the middle of the second batch from LSN 50
  SimulatedDisk* disk = db_.shard(0)->disk();
  Result<std::string> image = disk->ReadLogRecord(bad);
  ASSERT_TRUE(image.ok());
  std::string torn = *image;
  torn[1] = static_cast<char>(~torn[1]);
  ASSERT_TRUE(disk->RewriteLogRecord(bad, torn).ok());

  LogCursor cursor(*log_, 50, log_->flushed_lsn());
  Lsn last_good = kInvalidLsn;
  while (cursor.Next()) last_good = cursor.lsn();
  EXPECT_EQ(last_good, bad - 1);
  EXPECT_TRUE(cursor.status().IsCorruption());
  EXPECT_EQ(cursor.lsn(), bad);
  EXPECT_NE(cursor.status().message().find("LSN 100"), std::string::npos)
      << cursor.status().ToString();
  EXPECT_FALSE(cursor.Next());  // stays failed
}

TEST_F(LogCursorTest, ReadsTheVolatileTail) {
  const Lsn durable = log_->flushed_lsn();
  const TxnId txn = *db_.Begin();
  ASSERT_TRUE(db_.Set(txn, 100000, 33).ok());
  const Lsn end = log_->end_lsn();
  ASSERT_GT(end, durable);
  const Stats before = db_.stats();
  std::vector<std::string> by_cursor;
  {
    LogCursor cursor(*log_, durable - 2, end);
    while (cursor.Next()) by_cursor.push_back(cursor.record().Serialize());
    ASSERT_TRUE(cursor.status().ok()) << cursor.status().ToString();
  }
  std::vector<std::string> by_read;
  for (Lsn lsn = durable - 2; lsn <= end; ++lsn) {
    by_read.push_back(log_->Read(lsn)->Serialize());
  }
  EXPECT_EQ(by_cursor, by_read);
  // Tail records are memory reads: only the three durable ones count.
  EXPECT_EQ(CountsSince(db_.stats(), before).seq +
                CountsSince(db_.stats(), before).random,
            6u);  // three by the cursor, three by the point reads
  ASSERT_TRUE(db_.Commit(txn).ok());
}

TEST(LogCursorEdgeTest, RangeOutsideTheLogIsNotFound) {
  Database db;
  const TxnId txn = *db.Begin();
  ASSERT_TRUE(db.Set(txn, 1, 1).ok());
  ASSERT_TRUE(db.Commit(txn).ok());
  LogManager* log = db.shard(0)->log_manager();

  LogCursor past(*log, log->end_lsn() + 1, log->end_lsn() + 5);
  EXPECT_FALSE(past.Next());
  EXPECT_TRUE(past.status().IsNotFound());

  LogCursor empty(*log, 5, 4);
  EXPECT_FALSE(empty.Next());
  EXPECT_TRUE(empty.status().ok());
}

// A durable log whose stable segments hold a few records each: table
// updates with images of 1.5-18 KB, so every cursor batch spans several
// segment boundaries.
class SegmentedLogCursorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 300; ++i) {
      const std::string key = "k" + std::to_string(i);
      const size_t size = 1000 + static_cast<size_t>(i) * 7919 % 12000;
      log_.Append(LogRecord::MakeTableUpdate(
          1, log_.end_lsn(), table::TableRid(key), key,
          std::string(size, 'a'), std::string(size / 2, 'b')));
    }
    ASSERT_TRUE(log_.FlushAll().ok());
    ASSERT_GT(disk_.log_segment_count(), 40u);
  }

  /// Point reads of [from, to] in the given order, and their counts.
  std::vector<std::string> PointReads(Lsn from, Lsn to, bool backward,
                                      SweepCounts* counts) {
    Reposition();
    const Stats before = stats_;
    std::vector<std::string> images;
    for (Lsn i = 0; i <= to - from; ++i) {
      Result<LogRecord> rec = log_.Read(backward ? to - i : from + i);
      EXPECT_TRUE(rec.ok()) << rec.status().ToString();
      images.push_back(rec.ok() ? rec->Serialize() : "");
    }
    *counts = CountsSince(stats_, before);
    return images;
  }

  std::vector<std::string> CursorReads(Lsn from, Lsn to, bool backward,
                                       SweepCounts* counts) {
    Reposition();
    const Stats before = stats_;
    std::vector<std::string> images;
    {
      LogCursor cursor(log_, from, to,
                       backward ? LogCursor::Direction::kBackward
                                : LogCursor::Direction::kForward);
      while (cursor.Next()) {
        EXPECT_EQ(cursor.record().lsn, cursor.lsn());
        images.push_back(cursor.record().Serialize());
      }
      EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
    }
    *counts = CountsSince(stats_, before);
    return images;
  }

  void Reposition() { ASSERT_TRUE(log_.Read(150).ok()); }

  Stats stats_;
  SimulatedDisk disk_{&stats_};
  LogManager log_{&disk_, &stats_};
};

TEST_F(SegmentedLogCursorTest, RunsAcrossSegmentsMatchPointReads) {
  for (const bool backward : {false, true}) {
    SweepCounts by_read;
    SweepCounts by_cursor;
    const std::vector<std::string> want = PointReads(2, 297, backward, &by_read);
    EXPECT_EQ(CursorReads(2, 297, backward, &by_cursor), want)
        << (backward ? "backward" : "forward");
    EXPECT_EQ(by_cursor.seq, by_read.seq);
    EXPECT_EQ(by_cursor.random, by_read.random);
    EXPECT_EQ(by_cursor.bytes, by_read.bytes);
  }
}

TEST_F(SegmentedLogCursorTest, SkipToAcrossSegments) {
  // Stall 0 jumps; a 25 us stall reads the 100-record gap through.
  for (const uint64_t stall : {uint64_t{0}, uint64_t{25'000}}) {
    disk_.set_log_random_read_stall_ns(stall);
    for (const bool backward : {false, true}) {
      const Lsn start = backward ? 280 : 20;
      const Lsn target = backward ? 180 : 120;
      LogCursor cursor(log_, 10, 290,
                       backward ? LogCursor::Direction::kBackward
                                : LogCursor::Direction::kForward);
      while (cursor.Next() && cursor.lsn() != start) {
      }
      const uint64_t read = cursor.SkipTo(target);
      EXPECT_EQ(read, stall == 0 ? 0u : 99u);
      ASSERT_TRUE(cursor.Next()) << cursor.status().ToString();
      EXPECT_EQ(cursor.lsn(), target);
      EXPECT_EQ(cursor.record().Serialize(), log_.Read(target)->Serialize());
      ASSERT_TRUE(cursor.Next());  // and on past it, in its direction
      EXPECT_EQ(cursor.lsn(), backward ? target - 1 : target + 1);
      EXPECT_EQ(cursor.record().Serialize(),
                log_.Read(cursor.lsn())->Serialize());
    }
  }
}

}  // namespace
}  // namespace ariesrh
