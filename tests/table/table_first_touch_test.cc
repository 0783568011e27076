// Open on first touch: after a restart no heap bucket is in memory, and a
// bucket's stable chain is read, checked and indexed only when a record
// access, a drain or a scan first touches it.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "restart_util.h"
#include "storage/simulated_disk.h"
#include "table/heap_page.h"
#include "table/table_heap.h"
#include "util/stats.h"

namespace ariesrh {
namespace {

using table::kHeapPageBase;
using table::kTableBuckets;
using Rows = std::vector<std::pair<std::string, std::string>>;

size_t BucketOf(const std::string& key) {
  return table::BucketOfRid(table::TableRid(key));
}

/// The first `n` keys (at or after "k<from>") that hash to `bucket`.
std::vector<std::string> KeysInBucket(size_t bucket, size_t n, int from = 0) {
  std::vector<std::string> keys;
  for (int i = from; keys.size() < n; ++i) {
    std::string key = "k" + std::to_string(i);
    if (BucketOf(key) == bucket) keys.push_back(key);
  }
  return keys;
}

Status Put(Database* db, const std::string& key, const std::string& value) {
  ARIESRH_ASSIGN_OR_RETURN(TxnId t, db->Begin());
  ARIESRH_RETURN_IF_ERROR(db->TablePut(t, key, value));
  return db->Commit(t);
}

/// Stable heap page ids of `bucket` on shard 0's disk.
std::vector<PageId> StableChain(Database* db, size_t bucket) {
  std::vector<PageId> chain;
  for (PageId id : db->shard(0)->disk()->StablePageIds()) {
    if (id >= kHeapPageBase && (id - kHeapPageBase) % kTableBuckets == bucket) {
      chain.push_back(id);
    }
  }
  return chain;
}

/// Puts `per_bucket` keys into every bucket, writes every heap page back
/// (the second checkpoint writes what the first anchored), then crashes and
/// restarts: the log after the write-back holds no table write, so the
/// restart itself touches no bucket. `at_crash`, when set, receives the
/// stats taken right before the crash.
std::map<std::string, std::string> LoadCrashAndRestart(
    Database* db, size_t per_bucket, Stats* at_crash = nullptr) {
  std::map<std::string, std::string> want;
  for (size_t b = 0; b < kTableBuckets; ++b) {
    for (const std::string& key : KeysInBucket(b, per_bucket)) {
      want[key] = "v-" + key;
      EXPECT_TRUE(Put(db, key, want[key]).ok());
    }
  }
  EXPECT_TRUE(db->Checkpoint().ok());
  EXPECT_TRUE(db->Checkpoint().ok());
  EXPECT_TRUE(db->shard(0)->table_heap()->DirtyPageTable().empty());
  if (at_crash != nullptr) *at_crash = db->stats();
  db->SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(*db);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  return want;
}

TEST(TableFirstTouchTest, UntouchedBucketReadsNoStablePage) {
  Database db;  // kFull: nothing loads a bucket behind the caller's back
  LoadCrashAndRestart(&db, 3);
  const table::TableHeap* heap = db.shard(0)->table_heap();
  EXPECT_EQ(heap->record_count(), 0u);

  const Stats before = db.stats();
  const std::string key = KeysInBucket(5, 1)[0];
  Result<std::optional<std::string>> got = db.TableGetCommitted(key);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "v-" + key);
  const Stats delta = db.stats().Delta(before);
  EXPECT_EQ(delta.table_bucket_loads, 1u);
  // Only bucket 5's chain was read.
  EXPECT_EQ(delta.page_reads, StableChain(&db, 5).size());
  EXPECT_EQ(heap->record_count(), 3u);

  // A second touch of the same bucket reads nothing more.
  ASSERT_TRUE(db.TableGetCommitted(KeysInBucket(5, 2)[1]).ok());
  EXPECT_EQ(db.stats().Delta(before).table_bucket_loads, 1u);
  EXPECT_EQ(db.stats().Delta(before).page_reads, delta.page_reads);
}

TEST(TableFirstTouchTest, InstantCatchUpLoadsNoBucketWithoutPendingRedo) {
  Options options;
  options.recovery_mode = RecoveryMode::kInstant;
  Database db(options);
  Stats at_crash;
  LoadCrashAndRestart(&db, 3, &at_crash);  // awaits the background catch-up
  const table::TableHeap* heap = db.shard(0)->table_heap();
  // The log holds no table write past the write-back, so the catch-up had
  // no bucket to drain and loaded none.
  EXPECT_EQ(heap->record_count(), 0u);
  EXPECT_EQ(db.stats().Delta(at_crash).table_bucket_loads, 0u);

  const std::string key = KeysInBucket(5, 1)[0];
  Result<std::optional<std::string>> got = db.TableGetCommitted(key);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "v-" + key);
  // Only the touched bucket loaded.
  EXPECT_EQ(db.stats().Delta(at_crash).table_bucket_loads, 1u);
  EXPECT_EQ(heap->record_count(), 3u);
}

TEST(TableFirstTouchTest, PutIntoUnloadedBucketKeepsStableKeys) {
  // One record per page, so the bucket's chain is several pages long and
  // a new key needs a page of its own.
  Options options;
  options.table_max_value_bytes = 3000;
  Database db(options);
  const std::vector<std::string> keys = KeysInBucket(3, 4);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(Put(&db, keys[i], std::string(3000, 'a' + i)).ok());
  }
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  const std::vector<PageId> stable = StableChain(&db, 3);
  ASSERT_EQ(stable.size(), 3u);
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());

  // The put is the bucket's first touch: the stable chain loads before the
  // new record is placed, so the record gets a fresh page.
  ASSERT_TRUE(Put(&db, keys[3], std::string(3000, 'd')).ok());
  const std::map<PageId, Lsn> dirty =
      db.shard(0)->table_heap()->DirtyPageTable();
  ASSERT_EQ(dirty.size(), 1u);
  const PageId fresh = dirty.begin()->first;
  EXPECT_EQ(std::count(stable.begin(), stable.end(), fresh), 0);
  EXPECT_EQ((fresh - kHeapPageBase) % kTableBuckets, 3u);

  // Written back and recovered again, every key is still there.
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_EQ(StableChain(&db, 3).size(), 4u);
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(*db.TableGetCommitted(keys[i]),
              std::string(3000, i < 3 ? 'a' + i : 'd'))
        << keys[i];
  }
}

TEST(TableFirstTouchTest, CheckpointAfterRestartWritesNothingForUntouchedBuckets) {
  Database db;
  LoadCrashAndRestart(&db, 2);
  const Stats before = db.stats();
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_EQ(db.stats().Delta(before).checkpoint_pages_written, 0u);
  EXPECT_EQ(db.stats().Delta(before).table_bucket_loads, 0u);

  // One touched bucket: its dirty page goes out, nothing else.
  ASSERT_TRUE(Put(&db, KeysInBucket(7, 1)[0], "new").ok());
  const Stats mid = db.stats();
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  const Stats delta = db.stats().Delta(mid);
  EXPECT_EQ(delta.checkpoint_pages_written, 1u);
  EXPECT_EQ(db.stats().Delta(before).table_bucket_loads, 1u);
}

class TableFirstTouchScanTest : public ::testing::TestWithParam<RecoveryMode> {
};

INSTANTIATE_TEST_SUITE_P(Modes, TableFirstTouchScanTest,
                         ::testing::Values(RecoveryMode::kFull,
                                           RecoveryMode::kInstant),
                         [](const auto& info) {
                           return std::string(RecoveryModeName(info.param));
                         });

TEST_P(TableFirstTouchScanTest, ScanAfterRestartReturnsEveryKeyInOrder) {
  Options options;
  options.recovery_mode = GetParam();
  Database db(options);
  std::map<std::string, std::string> want = LoadCrashAndRestart(&db, 3);
  // One more committed write that only the log holds.
  const std::string late = KeysInBucket(9, 1, 1000)[0];
  ASSERT_TRUE(Put(&db, late, "late").ok());
  want[late] = "late";
  ASSERT_TRUE(db.Sync().ok());
  db.SimulateCrash();
  ASSERT_TRUE(db.StartRecovery().ok());

  TxnId t = *db.Begin();
  Result<Rows> all = db.TableScan(t, "", 0);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(*all, Rows(want.begin(), want.end()));
  // A bounded scan from the middle merges the buckets from its start key.
  auto from = want.begin();
  std::advance(from, want.size() / 2);
  Result<Rows> some = db.TableScan(t, from->first, 5);
  ASSERT_TRUE(some.ok()) << some.status().ToString();
  EXPECT_EQ(*some, Rows(from, std::next(from, 5)));
  ASSERT_TRUE(db.Commit(t).ok());
}

/// A heap over a bare disk whose stable pages a test writes by hand.
class TableLoadCorruptionTest : public ::testing::Test {
 protected:
  TableLoadCorruptionTest() : disk_(&stats_), heap_(&disk_, &stats_, nullptr) {}

  /// Writes heap page `n` of `bucket`'s chain holding `keys`.
  PageId WritePage(size_t bucket, size_t n,
                   const std::vector<std::string>& keys) {
    const PageId id = kHeapPageBase + static_cast<PageId>(bucket) +
                      static_cast<PageId>(kTableBuckets * n);
    table::HeapPage page(id);
    for (const std::string& key : keys) {
      EXPECT_TRUE(page.Insert(key, "v").ok());
    }
    EXPECT_TRUE(disk_.WritePage(id, page.Serialize()).ok());
    return id;
  }

  Result<Lsn> Write(const std::string& key) {
    return heap_.WithRecord(
        key, [](const std::optional<std::string>&,
                table::RecordMutation* mut) -> Result<Lsn> {
          mut->op = table::RecordOp::kUpsert;
          mut->value = "w";
          return Lsn{1};
        });
  }

  Stats stats_;
  SimulatedDisk disk_;
  table::TableHeap heap_;
};

TEST_F(TableLoadCorruptionTest, KeyOfAnotherBucketFailsTheFirstTouch) {
  const std::string stray = KeysInBucket(4, 1)[0];
  const PageId bad = WritePage(2, 0, {KeysInBucket(2, 1)[0], stray});
  WritePage(6, 0, {KeysInBucket(6, 1)[0]});

  Result<std::optional<std::string>> read = heap_.Read(KeysInBucket(2, 1)[0]);
  ASSERT_TRUE(read.status().IsCorruption()) << read.status().ToString();
  EXPECT_NE(read.status().ToString().find("heap page " + std::to_string(bad)),
            std::string::npos)
      << read.status().ToString();
  // The write path refuses the bucket the same way and changes nothing.
  EXPECT_TRUE(Write(KeysInBucket(2, 2)[1]).status().IsCorruption());
  EXPECT_EQ(heap_.record_count(), 0u);
  EXPECT_TRUE(heap_.DirtyPageTable().empty());
  // Other buckets load and serve.
  EXPECT_EQ(*heap_.Read(KeysInBucket(6, 1)[0]), "v");
  EXPECT_TRUE(Write(KeysInBucket(6, 2)[1]).ok());
  EXPECT_FALSE(heap_.Scan("", 0).ok());  // a scan touches the bad bucket
}

TEST_F(TableLoadCorruptionTest, KeyStableTwiceFailsTheFirstTouch) {
  const std::vector<std::string> keys = KeysInBucket(11, 2);
  WritePage(11, 0, {keys[0], keys[1]});
  const PageId bad = WritePage(11, 1, {keys[1]});

  Result<Lsn> write = Write(keys[0]);
  ASSERT_TRUE(write.status().IsCorruption()) << write.status().ToString();
  EXPECT_NE(write.status().ToString().find("heap page " + std::to_string(bad)),
            std::string::npos)
      << write.status().ToString();
  EXPECT_EQ(stats_.table_bucket_loads, 0u);
  // The drain touches it too.
  Status drained = Status::OK();
  for (size_t b = 0; b < kTableBuckets && drained.ok(); ++b) {
    drained = heap_.Drain(b);
  }
  EXPECT_TRUE(drained.IsCorruption());
}

}  // namespace
}  // namespace ariesrh
