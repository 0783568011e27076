#include "storage/simulated_disk.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

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

// --- segment boundaries ---
//
// The stable log lives in segments of kLogSegmentBytes. Records of a
// quarter segment fill one exactly with four, so with kQuarter-sized
// records the boundaries fall after LSNs 4, 8, 12, ...

constexpr size_t kQuarter = SimulatedDisk::kLogSegmentBytes / 4;

/// A distinct image of `size` bytes for `lsn`.
std::string Image(Lsn lsn, size_t size) {
  std::string image(size, static_cast<char>('a' + lsn % 26));
  image.front() = static_cast<char>(lsn);
  return image;
}

class SegmentedLogTest : public ::testing::Test {
 protected:
  /// Appends records 1..n of a quarter segment each.
  void AppendQuarters(Lsn n) {
    for (Lsn lsn = disk_.stable_end_lsn() + 1; lsn <= n; ++lsn) {
      want_.push_back(Image(lsn, kQuarter));
      disk_.AppendLogRecord(want_.back());
    }
    disk_.ForceLog();
  }

  /// ReadLogRun of [first, last], split back into records.
  std::vector<std::string> Run(Lsn first, Lsn last) const {
    std::string bytes = "prefix";  // a run appends to what the buffer holds
    std::vector<uint32_t> ends = {6};
    disk_.ReadLogRun(first, last, &bytes, &ends);
    std::vector<std::string> records;
    for (size_t i = 1; i < ends.size(); ++i) {
      records.push_back(bytes.substr(ends[i - 1], ends[i] - ends[i - 1]));
    }
    return records;
  }

  /// Every retained record read back both ways equals `want_`.
  void ExpectLog() const {
    ASSERT_EQ(disk_.stable_end_lsn(), want_.size());
    const Lsn first = disk_.first_retained_lsn();
    for (Lsn lsn = first; lsn <= disk_.stable_end_lsn(); ++lsn) {
      EXPECT_EQ(*disk_.ReadLogRecord(lsn), want_[lsn - 1]) << "LSN " << lsn;
    }
    if (first > disk_.stable_end_lsn()) return;
    EXPECT_EQ(Run(first, disk_.stable_end_lsn()),
              std::vector<std::string>(want_.begin() + (first - 1),
                                       want_.end()));
  }

  Stats stats_;
  SimulatedDisk disk_{&stats_};
  std::vector<std::string> want_;  ///< record images by LSN - 1
};

TEST_F(SegmentedLogTest, RunReadsCrossSegmentBoundaries) {
  AppendQuarters(10);
  EXPECT_EQ(disk_.log_segment_count(), 3u);
  ExpectLog();
  // Runs that start, end and straddle at a boundary.
  EXPECT_EQ(Run(4, 5), std::vector<std::string>(want_.begin() + 3,
                                                want_.begin() + 5));
  EXPECT_EQ(Run(5, 8), std::vector<std::string>(want_.begin() + 4,
                                                want_.begin() + 8));
  EXPECT_EQ(Run(3, 10), std::vector<std::string>(want_.begin() + 2,
                                                 want_.end()));
  // A run read counts nothing; its reader accounts the records.
  EXPECT_EQ(stats_.log_bytes_read, 10 * kQuarter);  // ExpectLog's point reads
}

TEST_F(SegmentedLogTest, ArchiveBeforeAtAndInsideASegment) {
  AppendQuarters(12);
  EXPECT_EQ(disk_.ArchiveLogPrefix(1), 0u);  // before the first record
  EXPECT_EQ(disk_.first_retained_lsn(), 1u);

  EXPECT_EQ(disk_.ArchiveLogPrefix(3), 2u);  // inside the first segment
  EXPECT_EQ(disk_.first_retained_lsn(), 3u);
  EXPECT_EQ(disk_.log_segment_count(), 3u);  // it still holds 3 and 4
  EXPECT_TRUE(disk_.ReadLogRecord(2).status().IsNotFound());
  ExpectLog();

  EXPECT_EQ(disk_.ArchiveLogPrefix(5), 2u);  // at the second segment
  EXPECT_EQ(disk_.first_retained_lsn(), 5u);
  EXPECT_EQ(disk_.log_segment_count(), 2u);
  EXPECT_TRUE(disk_.ReadLogRecord(4).status().IsNotFound());
  ExpectLog();

  EXPECT_EQ(disk_.ArchiveLogPrefix(11), 6u);  // over a segment, into one
  EXPECT_EQ(disk_.first_retained_lsn(), 11u);
  EXPECT_EQ(disk_.log_segment_count(), 1u);
  EXPECT_TRUE(disk_.ReadLogRecord(10).status().IsNotFound());
  ExpectLog();

  // Past the end: everything goes, and appends continue the LSNs.
  EXPECT_EQ(disk_.ArchiveLogPrefix(100), 2u);
  EXPECT_EQ(disk_.log_segment_count(), 0u);
  EXPECT_EQ(disk_.first_retained_lsn(), 13u);
  EXPECT_EQ(disk_.stable_end_lsn(), 12u);
  AppendQuarters(14);
  EXPECT_EQ(disk_.first_retained_lsn(), 13u);
  ExpectLog();
}

TEST_F(SegmentedLogTest, RewriteGrowsAndShrinksRecordsInASealedSegment) {
  AppendQuarters(9);  // segments [1-4] [5-8] [9]
  want_[1] = Image(2, kQuarter + 100);  // grows
  want_[2] = Image(3, kQuarter - 100);  // shrinks
  ASSERT_TRUE(disk_.RewriteLogRecord(2, want_[1]).ok());
  ASSERT_TRUE(disk_.RewriteLogRecord(3, want_[2]).ok());
  EXPECT_EQ(stats_.log_rewrites, 2u);
  ExpectLog();
  // Same-length rewrites patch in place, on either side of a split.
  want_[0] = Image(40, kQuarter);
  want_[3] = Image(41, kQuarter);
  ASSERT_TRUE(disk_.RewriteLogRecord(1, want_[0]).ok());
  ASSERT_TRUE(disk_.RewriteLogRecord(4, want_[3]).ok());
  ExpectLog();
  // The last record of the open segment, and then appends after it.
  want_[8] = Image(9, 10);
  ASSERT_TRUE(disk_.RewriteLogRecord(9, want_[8]).ok());
  AppendQuarters(11);
  ExpectLog();
  // Archiving and truncating across the split pieces.
  EXPECT_EQ(disk_.ArchiveLogPrefix(3), 2u);
  disk_.TruncateLog(10);
  want_.resize(10);
  ExpectLog();
}

TEST_F(SegmentedLogTest, TruncateDropAndCorruptAtABoundary) {
  AppendQuarters(9);  // segments [1-4] [5-8] [9]
  ASSERT_TRUE(disk_.DropLastLogRecord().ok());  // empties the third
  want_.pop_back();
  EXPECT_EQ(disk_.log_segment_count(), 2u);
  ExpectLog();

  disk_.TruncateLog(4);  // exactly at the first boundary
  want_.resize(4);
  EXPECT_EQ(disk_.log_segment_count(), 1u);
  ExpectLog();
  AppendQuarters(5);  // the first segment is full: a new one
  EXPECT_EQ(disk_.log_segment_count(), 2u);
  ExpectLog();

  // The last record is the first of its segment.
  ASSERT_TRUE(disk_.CorruptLogTail(3).ok());
  const std::string torn = *disk_.ReadLogRecord(5);
  EXPECT_EQ(torn.substr(0, kQuarter - 3), want_[4].substr(0, kQuarter - 3));
  EXPECT_NE(torn.substr(kQuarter - 3), want_[4].substr(kQuarter - 3));
  EXPECT_EQ(*disk_.ReadLogRecord(4), want_[3]);

  disk_.TruncateLog(2);  // inside the first segment
  want_.resize(2);
  EXPECT_EQ(disk_.log_segment_count(), 1u);
  AppendQuarters(7);  // refills it from where the truncation left it
  EXPECT_EQ(disk_.log_segment_count(), 2u);
  ExpectLog();
}

TEST_F(SegmentedLogTest, RecordLargerThanASegment) {
  AppendQuarters(2);
  want_.push_back(Image(3, 2 * SimulatedDisk::kLogSegmentBytes + 1));
  disk_.AppendLogRecord(want_.back());
  AppendQuarters(5);
  EXPECT_EQ(disk_.log_segment_count(), 3u);  // [1-2] [3] [4-5]
  ExpectLog();
  ASSERT_TRUE(disk_.CorruptLogTail(0).ok());  // a whole quarter record
  disk_.TruncateLog(3);  // the big record is last again
  want_.resize(3);
  ExpectLog();
}

TEST_F(SegmentedLogTest, LoadThenSaveIsByteIdentical) {
  ASSERT_TRUE(disk_.WritePage(7, "page-seven").ok());
  AppendQuarters(6);
  want_.push_back(Image(7, 3));
  disk_.AppendLogRecord(want_.back());
  disk_.SetMasterRecord(5);
  disk_.ArchiveLogPrefix(3);  // the base lies inside the first segment
  const std::string first = ::testing::TempDir() + "/segments_a.ariesrh";
  const std::string second = ::testing::TempDir() + "/segments_b.ariesrh";
  ASSERT_TRUE(disk_.SaveTo(first).ok());
  Stats stats;
  Result<SimulatedDisk> loaded = SimulatedDisk::LoadFrom(first, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->first_retained_lsn(), 3u);
  EXPECT_EQ(loaded->stable_end_lsn(), 7u);
  for (Lsn lsn = 3; lsn <= 7; ++lsn) {
    EXPECT_EQ(*loaded->ReadLogRecord(lsn), want_[lsn - 1]) << "LSN " << lsn;
  }
  ASSERT_TRUE(loaded->SaveTo(second).ok());
  const auto bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  EXPECT_EQ(bytes(second), bytes(first));
  std::remove(first.c_str());
  std::remove(second.c_str());
}

}  // namespace
}  // namespace ariesrh
