// Instant restart's bucket drains under foreground traffic: each bucket has
// its own latch, so a record access waits only when it hits the bucket
// being drained — a write to a drained bucket does not wait for the bucket
// in progress — and each bucket still drains atomically, so a key's
// pending redo always lands before a foreground write to it.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "storage/simulated_disk.h"
#include "table/table_heap.h"
#include "util/stats.h"
#include "wal/log_record.h"

namespace ariesrh::table {
namespace {

using Clock = std::chrono::steady_clock;

constexpr auto kBucketDrain = std::chrono::milliseconds(10);
// How long a held bucket's drain lasts unless the test releases it first.
constexpr auto kHeldDrain = std::chrono::milliseconds(2000);

// A key whose rid falls into `bucket`.
std::string KeyInBucket(size_t bucket) {
  for (int i = 0;; ++i) {
    std::string key = "key" + std::to_string(i);
    if (BucketOfRid(TableRid(key)) == bucket) return key;
  }
}

// An instant-restart resolve hook over one pending TBL_INSERT per bucket
// (key KeyInBucket(b) -> "redo", LSN b + 1). The first resolve of a bucket
// takes kBucketDrain, like a bucket with a long log suffix — or, for the
// held bucket, kHeldDrain or until Release(); later resolves find it empty
// and return at once.
class SlowBuckets {
 public:
  std::vector<RedoEntry> Resolve(size_t bucket) {
    if (resolved_[bucket].exchange(true)) return {};
    started_.fetch_add(1);
    if (bucket == held_) {
      std::unique_lock<std::mutex> lock(mu_);
      release_cv_.wait_for(lock, kHeldDrain, [this] { return released_; });
    } else {
      std::this_thread::sleep_for(kBucketDrain);
    }
    const std::string key = KeyInBucket(bucket);
    LogRecord rec = LogRecord::MakeTableInsert(/*txn=*/1, kInvalidLsn,
                                               TableRid(key), key, "redo");
    rec.lsn = static_cast<Lsn>(bucket + 1);
    std::vector<RedoEntry> entries;
    entries.push_back(RedoEntry::Of(rec));
    return entries;
  }

  /// Buckets whose resolve has begun.
  size_t started() const { return started_.load(); }

  /// Makes `bucket`'s drain last until Release() (or kHeldDrain). Call
  /// before any drain starts.
  void Hold(size_t bucket) { held_ = bucket; }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    release_cv_.notify_all();
  }

 private:
  std::array<std::atomic<bool>, kTableBuckets> resolved_{};
  std::atomic<size_t> started_{0};
  size_t held_ = kTableBuckets;  // none
  std::mutex mu_;
  std::condition_variable release_cv_;
  bool released_ = false;
};

class TableDrainTest : public ::testing::Test {
 protected:
  TableDrainTest() : disk_(&stats_), heap_(&disk_, &stats_, nullptr) {
    heap_.set_redo_resolve(
        [this](size_t bucket) { return buckets_.Resolve(bucket); });
  }

  // Overwrites `key` with `value` at `lsn`; returns the value the write saw.
  std::optional<std::string> Put(const std::string& key,
                                 const std::string& value, Lsn lsn) {
    std::optional<std::string> seen;
    Result<Lsn> put = heap_.WithRecord(
        key, [&](const std::optional<std::string>& current,
                 RecordMutation* mut) -> Result<Lsn> {
          seen = current;
          mut->op = RecordOp::kUpsert;
          mut->value = value;
          return lsn;
        });
    EXPECT_TRUE(put.ok()) << put.status().ToString();
    return seen;
  }

  // Instant restart's background sweep over every bucket, in index order.
  Status DrainAll() {
    for (size_t b = 0; b < kTableBuckets; ++b) {
      ARIESRH_RETURN_IF_ERROR(heap_.Drain(b));
    }
    return Status::OK();
  }

  void WaitForBucketsStarted(size_t n) {
    while (buckets_.started() < n) std::this_thread::yield();
  }

  Stats stats_;
  SimulatedDisk disk_;
  SlowBuckets buckets_;
  TableHeap heap_;
};

TEST_F(TableDrainTest, ForegroundWriteWaitsForAtMostAFewBuckets) {
  std::thread drainer([this] { EXPECT_TRUE(DrainAll().ok()); });
  // Bucket 1 has begun, so bucket 0 is drained and the drain is mid-way.
  WaitForBucketsStarted(2);
  const Clock::time_point start = Clock::now();
  const std::optional<std::string> seen =
      Put(KeyInBucket(0), "foreground", /*lsn=*/100);
  const Clock::duration waited = Clock::now() - start;
  const size_t buckets_started = buckets_.started();
  drainer.join();

  EXPECT_EQ(seen, "redo");  // bucket 0's redo landed before the write
  // Holding the latch across the whole drain would make the write wait for
  // the remaining ~15 buckets.
  EXPECT_LT(waited, 4 * kBucketDrain)
      << "waited " << std::chrono::duration_cast<std::chrono::milliseconds>(
                          waited).count()
      << " ms";
  EXPECT_LT(buckets_started, kTableBuckets);
  EXPECT_EQ(*heap_.Read(KeyInBucket(0)), "foreground");
}

TEST_F(TableDrainTest, WriteToADrainedBucketSkipsTheBucketInProgress) {
  buckets_.Hold(1);
  std::thread drainer([this] { EXPECT_TRUE(DrainAll().ok()); });
  // Bucket 1's drain has begun and holds its latch; bucket 0 is drained.
  WaitForBucketsStarted(2);
  const Clock::time_point start = Clock::now();
  const std::optional<std::string> seen =
      Put(KeyInBucket(0), "foreground", /*lsn=*/100);
  const Clock::duration waited = Clock::now() - start;
  buckets_.Release();
  drainer.join();

  EXPECT_EQ(seen, "redo");
  // One latch over every bucket would hold the write until bucket 1 is
  // done, i.e. for the whole kHeldDrain.
  EXPECT_LT(waited, kHeldDrain / 8)
      << "waited " << std::chrono::duration_cast<std::chrono::milliseconds>(
                          waited).count()
      << " ms";
  EXPECT_EQ(*heap_.Read(KeyInBucket(0)), "foreground");
  EXPECT_EQ(*heap_.Read(KeyInBucket(1)), "redo");
}

TEST_F(TableDrainTest, ForegroundWriteToAPendingBucketLandsAfterItsRedo) {
  const std::string last = KeyInBucket(kTableBuckets - 1);
  std::thread drainer([this] { EXPECT_TRUE(DrainAll().ok()); });
  WaitForBucketsStarted(1);
  // The last bucket is still pending: the write drains it first, and the
  // background drain then finds it empty instead of replaying the older
  // record over the newer write.
  const std::optional<std::string> seen = Put(last, "foreground", 100);
  drainer.join();

  EXPECT_EQ(seen, "redo");
  EXPECT_EQ(*heap_.Read(last), "foreground");
  for (size_t b = 0; b + 1 < kTableBuckets; ++b) {
    EXPECT_EQ(*heap_.Read(KeyInBucket(b)), "redo") << "bucket " << b;
  }
  EXPECT_EQ(heap_.record_count(), kTableBuckets);
}

}  // namespace
}  // namespace ariesrh::table
