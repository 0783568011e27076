#include "storage/simulated_disk.h"

#include <gtest/gtest.h>

namespace ariesrh {
namespace {

class SimulatedDiskTest : public ::testing::Test {
 protected:
  Stats stats_;
  SimulatedDisk disk_{&stats_};
};

TEST_F(SimulatedDiskTest, PageRoundTrip) {
  ASSERT_TRUE(disk_.WritePage(5, "image-5").ok());
  EXPECT_TRUE(disk_.HasPage(5));
  EXPECT_FALSE(disk_.HasPage(6));
  Result<PageImage> got = disk_.ReadPage(5);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, "image-5");
  EXPECT_EQ(stats_.page_writes, 1u);
  EXPECT_EQ(stats_.page_reads, 1u);
}

TEST_F(SimulatedDiskTest, MissingPageIsNotFound) {
  EXPECT_TRUE(disk_.ReadPage(9).status().IsNotFound());
}

TEST_F(SimulatedDiskTest, PageOverwrite) {
  ASSERT_TRUE(disk_.WritePage(1, "v1").ok());
  ASSERT_TRUE(disk_.WritePage(1, "v2").ok());
  EXPECT_EQ(**disk_.ReadPage(1), "v2");
}

TEST_F(SimulatedDiskTest, LogAppendAssignsSequentialLsns) {
  EXPECT_EQ(disk_.stable_end_lsn(), 0u);
  disk_.AppendLogRecords({"a", "b", "c"});
  EXPECT_EQ(disk_.stable_end_lsn(), 3u);
  EXPECT_EQ(*disk_.ReadLogRecord(1), "a");
  EXPECT_EQ(*disk_.ReadLogRecord(2), "b");
  EXPECT_EQ(*disk_.ReadLogRecord(3), "c");
  EXPECT_EQ(stats_.log_flushes, 1u);
}

TEST_F(SimulatedDiskTest, LogReadOutOfRangeIsNotFound) {
  disk_.AppendLogRecords({"a"});
  EXPECT_TRUE(disk_.ReadLogRecord(0).status().IsNotFound());
  EXPECT_TRUE(disk_.ReadLogRecord(2).status().IsNotFound());
}

TEST_F(SimulatedDiskTest, SequentialVsRandomReadClassification) {
  disk_.AppendLogRecords({"a", "b", "c", "d", "e", "f"});
  // First read has no predecessor: random.
  (void)*disk_.ReadLogRecord(1);
  EXPECT_EQ(stats_.log_random_reads, 1u);
  // Forward-adjacent reads are sequential.
  (void)*disk_.ReadLogRecord(2);
  (void)*disk_.ReadLogRecord(3);
  EXPECT_EQ(stats_.log_seq_reads, 2u);
  // A jump is random.
  (void)*disk_.ReadLogRecord(6);
  EXPECT_EQ(stats_.log_random_reads, 2u);
  // Backward-adjacent (the undo sweep pattern) is sequential.
  (void)*disk_.ReadLogRecord(5);
  (void)*disk_.ReadLogRecord(4);
  EXPECT_EQ(stats_.log_seq_reads, 4u);
}

TEST_F(SimulatedDiskTest, RewriteLogRecordInPlace) {
  disk_.AppendLogRecords({"a", "b"});
  ASSERT_TRUE(disk_.RewriteLogRecord(1, "A").ok());
  EXPECT_EQ(*disk_.ReadLogRecord(1), "A");
  EXPECT_EQ(*disk_.ReadLogRecord(2), "b");
  EXPECT_EQ(stats_.log_rewrites, 1u);
  EXPECT_TRUE(disk_.RewriteLogRecord(3, "x").IsInvalidArgument());
}

TEST_F(SimulatedDiskTest, TruncateLogDropsSuffix) {
  disk_.AppendLogRecords({"a", "b", "c"});
  disk_.TruncateLog(1);
  EXPECT_EQ(disk_.stable_end_lsn(), 1u);
  EXPECT_TRUE(disk_.ReadLogRecord(2).status().IsNotFound());
  disk_.TruncateLog(5);  // beyond end: no-op
  EXPECT_EQ(disk_.stable_end_lsn(), 1u);
}

TEST_F(SimulatedDiskTest, CorruptLogTailFlipsBytes) {
  disk_.AppendLogRecords({"abcdef"});
  ASSERT_TRUE(disk_.CorruptLogTail(2).ok());
  std::string rec = *disk_.ReadLogRecord(1);
  EXPECT_EQ(rec.substr(0, 4), "abcd");
  EXPECT_NE(rec.substr(4), "ef");
}

TEST_F(SimulatedDiskTest, CorruptEmptyLogFails) {
  EXPECT_TRUE(disk_.CorruptLogTail(1).IsIllegalState());
  EXPECT_TRUE(disk_.DropLastLogRecord().IsIllegalState());
}

TEST_F(SimulatedDiskTest, DropLastLogRecord) {
  disk_.AppendLogRecords({"a", "b"});
  ASSERT_TRUE(disk_.DropLastLogRecord().ok());
  EXPECT_EQ(disk_.stable_end_lsn(), 1u);
}

TEST_F(SimulatedDiskTest, MasterRecordDefaultsToZero) {
  EXPECT_EQ(disk_.master_record(), 0u);
  disk_.SetMasterRecord(17);
  EXPECT_EQ(disk_.master_record(), 17u);
}

}  // namespace
}  // namespace ariesrh
