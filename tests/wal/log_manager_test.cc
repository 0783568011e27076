#include "wal/log_manager.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace ariesrh {
namespace {

class LogManagerTest : public ::testing::Test {
 protected:
  LogManagerTest() : disk_(&stats_), log_(&disk_, &stats_) {}

  Lsn AppendBegin(TxnId txn) { return log_.Append(LogRecord::MakeBegin(txn)); }

  Stats stats_;
  SimulatedDisk disk_;
  LogManager log_;
};

TEST_F(LogManagerTest, AppendAssignsMonotonicLsns) {
  EXPECT_EQ(AppendBegin(1), 1u);
  EXPECT_EQ(AppendBegin(2), 2u);
  EXPECT_EQ(AppendBegin(3), 3u);
  EXPECT_EQ(log_.end_lsn(), 3u);
  EXPECT_EQ(log_.flushed_lsn(), 0u);
  EXPECT_EQ(stats_.log_appends, 3u);
}

TEST_F(LogManagerTest, ReadFromTail) {
  AppendBegin(7);
  Result<LogRecord> rec = log_.Read(1);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->txn_id, 7u);
  EXPECT_EQ(rec->lsn, 1u);
  // Tail reads cost no stable I/O.
  EXPECT_EQ(stats_.log_seq_reads + stats_.log_random_reads, 0u);
}

TEST_F(LogManagerTest, FlushMakesPrefixDurable) {
  AppendBegin(1);
  AppendBegin(2);
  AppendBegin(3);
  ASSERT_TRUE(log_.Flush(2).ok());
  EXPECT_EQ(log_.flushed_lsn(), 2u);
  EXPECT_EQ(disk_.stable_end_lsn(), 2u);
  ASSERT_TRUE(log_.FlushAll().ok());
  EXPECT_EQ(disk_.stable_end_lsn(), 3u);
}

TEST_F(LogManagerTest, FlushIsIdempotent) {
  AppendBegin(1);
  ASSERT_TRUE(log_.Flush(1).ok());
  const uint64_t flushes = stats_.log_flushes;
  ASSERT_TRUE(log_.Flush(1).ok());
  ASSERT_TRUE(log_.Flush(kInvalidLsn).ok());
  EXPECT_EQ(stats_.log_flushes, flushes);
}

TEST_F(LogManagerTest, ReadSpansDurableAndTail) {
  AppendBegin(1);
  AppendBegin(2);
  ASSERT_TRUE(log_.Flush(1).ok());
  EXPECT_EQ(log_.Read(1)->txn_id, 1u);  // durable
  EXPECT_EQ(log_.Read(2)->txn_id, 2u);  // tail
  EXPECT_TRUE(log_.Read(3).status().IsNotFound());
  EXPECT_TRUE(log_.Read(0).status().IsNotFound());
  EXPECT_TRUE(log_.Read(kInvalidLsn).status().IsNotFound());
}

TEST_F(LogManagerTest, RewriteTailRecordInMemory) {
  AppendBegin(1);
  LogRecord rec = *log_.Read(1);
  rec.txn_id = 9;
  ASSERT_TRUE(log_.Rewrite(1, rec).ok());
  EXPECT_EQ(log_.Read(1)->txn_id, 9u);
  EXPECT_EQ(stats_.log_rewrites, 0u);  // volatile patch, no stable write
}

TEST_F(LogManagerTest, RewriteDurableRecordHitsDisk) {
  AppendBegin(1);
  ASSERT_TRUE(log_.FlushAll().ok());
  LogRecord rec = *log_.Read(1);
  rec.txn_id = 9;
  ASSERT_TRUE(log_.Rewrite(1, rec).ok());
  EXPECT_EQ(log_.Read(1)->txn_id, 9u);
  EXPECT_EQ(stats_.log_rewrites, 1u);
}

TEST_F(LogManagerTest, RewriteMustPreserveLsn) {
  AppendBegin(1);
  LogRecord rec = *log_.Read(1);
  rec.lsn = 5;
  EXPECT_TRUE(log_.Rewrite(1, rec).IsInvalidArgument());
  EXPECT_TRUE(log_.Rewrite(4, rec).IsInvalidArgument());
}

TEST_F(LogManagerTest, DiscardTailModelsCrash) {
  AppendBegin(1);
  AppendBegin(2);
  ASSERT_TRUE(log_.Flush(1).ok());
  log_.DiscardTail();
  EXPECT_EQ(log_.end_lsn(), 1u);
  EXPECT_TRUE(log_.Read(2).status().IsNotFound());
  // New appends reuse the lost LSN.
  EXPECT_EQ(AppendBegin(3), 2u);
}

TEST_F(LogManagerTest, ReattachResumesAfterDurablePrefix) {
  AppendBegin(1);
  AppendBegin(2);
  ASSERT_TRUE(log_.FlushAll().ok());
  LogManager reborn(&disk_, &stats_);
  EXPECT_EQ(reborn.end_lsn(), 2u);
  EXPECT_EQ(reborn.flushed_lsn(), 2u);
  EXPECT_EQ(reborn.Append(LogRecord::MakeBegin(5)), 3u);
  EXPECT_EQ(reborn.Read(1)->txn_id, 1u);
}

TEST(LogManagerForceTest, ForcedLsnDoesNotQueueBehindAnotherForce) {
  constexpr uint64_t kStallNs = 20'000'000;  // 20 ms per force
  Stats stats;
  SimulatedDisk disk(&stats);
  disk.set_log_force_stall_ns(kStallNs);
  LogManager log(&disk, &stats);
  const Lsn first = log.Append(LogRecord::MakeBegin(1));
  ASSERT_TRUE(log.Flush(first).ok());
  const Lsn second = log.Append(LogRecord::MakeBegin(2));
  std::thread forcer([&] { EXPECT_TRUE(log.Flush(second).ok()); });
  while (log.flushed_lsn() < second) std::this_thread::yield();
  // `second` is written but its force is still stalling: a flush of it must
  // wait the stall out, while `first`, forced earlier, returns at once.
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(log.Flush(first).ok());
  const auto first_wait = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(log.Flush(second).ok());
  const auto second_wait = std::chrono::steady_clock::now() - start;
  forcer.join();
  EXPECT_LT(first_wait, std::chrono::milliseconds(10));
  EXPECT_GT(second_wait, std::chrono::milliseconds(10));
}

TEST_F(LogManagerTest, GroupFlushBatchesRecords) {
  for (TxnId t = 1; t <= 10; ++t) AppendBegin(t);
  ASSERT_TRUE(log_.FlushAll().ok());
  EXPECT_EQ(stats_.log_flushes, 1u);  // one device flush for ten records
}

}  // namespace
}  // namespace ariesrh
