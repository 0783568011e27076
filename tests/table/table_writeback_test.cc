// Checkpoint write-back of the table heap: a checkpoint writes a bucket
// chain whole, so a record that relocated between two pages of its chain
// between two checkpoints is stable on exactly one of them, and the
// bucket's first touch after the crash reads a consistent chain.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "table/table_heap.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

/// The first `n` keys that hash to heap bucket 0.
std::vector<std::string> KeysInBucketZero(size_t n) {
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < n; ++i) {
    std::string key = "k" + std::to_string(i);
    if (table::BucketOfRid(table::TableRid(key)) == 0) keys.push_back(key);
  }
  return keys;
}

Status Put(Database* db, const std::string& key, const std::string& value) {
  ARIESRH_ASSIGN_OR_RETURN(TxnId t, db->Begin());
  ARIESRH_RETURN_IF_ERROR(db->TablePut(t, key, value));
  return db->Commit(t);
}

class TableWriteBackTest : public ::testing::TestWithParam<RecoveryMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, TableWriteBackTest,
                         ::testing::Values(RecoveryMode::kFull,
                                           RecoveryMode::kInstant),
                         [](const auto& info) {
                           return std::string(RecoveryModeName(info.param));
                         });

// Chain of bucket 0: page P1 holds `a` and `b` (2,000 bytes each), page P2
// holds `e`. P2 is dirtied after checkpoint B and stays dirty through C;
// then `a` grows past what P1 can hold and relocates to P2, dirtying P1.
// Checkpoint D writes P2 back (dirty since before C's CKPT_BEGIN). Were P1
// left out, `a` would be stable on both pages and the bucket's load would
// refuse the chain (Corruption: a key already stable in its chain).
TEST_P(TableWriteBackTest, RelocationBetweenCheckpointsIsWrittenWithItsChain) {
  Options options;
  options.recovery_mode = GetParam();
  options.table_max_value_bytes = 3000;
  Database db(options);
  const std::vector<std::string> keys = KeysInBucketZero(3);
  const std::string& a = keys[0];
  const std::string& b = keys[1];
  const std::string& e = keys[2];
  ASSERT_TRUE(Put(&db, a, std::string(2000, 'a')).ok());
  ASSERT_TRUE(Put(&db, b, std::string(2000, 'b')).ok());
  ASSERT_TRUE(Put(&db, e, std::string(200, 'e')).ok());
  // A anchors the rule; B writes every page back (all dirty since before A).
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_TRUE(db.shard(0)->table_heap()->DirtyPageTable().empty());

  ASSERT_TRUE(Put(&db, e, std::string(210, 'E')).ok());  // P2 dirty
  ASSERT_TRUE(db.Checkpoint().ok());                      // C: P2 not due yet
  ASSERT_EQ(db.shard(0)->table_heap()->DirtyPageTable().size(), 1u);

  const uint64_t relocations = db.stats().table_relocations;
  ASSERT_TRUE(Put(&db, a, std::string(2100, 'A')).ok());  // P1 -> P2
  ASSERT_EQ(db.stats().table_relocations - relocations, 1u);
  ASSERT_EQ(db.shard(0)->table_heap()->DirtyPageTable().size(), 2u);

  const uint64_t written = db.stats().checkpoint_pages_written;
  ASSERT_TRUE(db.Checkpoint().ok());  // D: the chain goes out whole
  EXPECT_EQ(db.stats().checkpoint_pages_written - written, 2u);
  EXPECT_TRUE(db.shard(0)->table_heap()->DirtyPageTable().empty());

  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(*db.TableGetCommitted(a), std::string(2100, 'A'));
  EXPECT_EQ(*db.TableGetCommitted(b), std::string(2000, 'b'));
  EXPECT_EQ(*db.TableGetCommitted(e), std::string(210, 'E'));
  EXPECT_EQ(db.shard(0)->table_heap()->record_count(), 3u);
}

// A checkpoint's heap write-back runs while sessions keep missing in the
// buffer pool, whose evictions write and whose fetches read the same stable
// device. Every committed put and counter increment must read back live and
// after a crash (the TSan leg runs this).
TEST(TableWriteBackConcurrencyTest, HeapWriteBackBesidePoolEvictions) {
  Options options;
  options.buffer_pool_pages = 4;
  Database db(options);
  constexpr int kSessions = 3;
  constexpr int kTxnsEach = 150;
  constexpr ObjectId kCounterPages = 32;
  std::vector<std::map<ObjectId, int64_t>> adds(kSessions);
  std::vector<std::map<std::string, std::string>> puts(kSessions);
  std::atomic<int> running{kSessions};
  // Sessions keep going until a checkpoint has written pages back, so the
  // write-back overlaps them however the threads are scheduled.
  std::atomic<bool> written_back{false};
  std::vector<std::thread> sessions;
  for (int c = 0; c < kSessions; ++c) {
    sessions.emplace_back([&, c] {
      for (int i = 0;
           i < kTxnsEach || (!written_back.load() && i < 100 * kTxnsEach);
           ++i) {
        // Each session owns its keys and counters, so no lock conflicts:
        // every transaction commits.
        const ObjectId ob =
            (static_cast<ObjectId>(i) % kCounterPages) * kObjectsPerPage + c;
        const std::string key =
            "s" + std::to_string(c) + "k" + std::to_string(i % 40);
        const std::string value(static_cast<size_t>(20 + i % 300),
                                static_cast<char>('a' + i % 26));
        const TxnId t = *db.Begin();
        ASSERT_TRUE(db.Add(t, ob, 1).ok());
        ASSERT_TRUE(db.TablePut(t, key, value).ok());
        ASSERT_TRUE(db.Commit(t).ok());
        ++adds[c][ob];
        puts[c][key] = value;
      }
      running.fetch_sub(1);
    });
  }
  while (running.load() > 0) {
    ASSERT_TRUE(db.Checkpoint().ok());
    if (db.stats().checkpoint_pages_written.value() > 0) {
      written_back.store(true);
    }
  }
  for (std::thread& session : sessions) session.join();
  EXPECT_TRUE(written_back.load());

  auto expect_state = [&](const char* when) {
    for (int c = 0; c < kSessions; ++c) {
      for (const auto& [ob, n] : adds[c]) {
        EXPECT_EQ(*db.ReadCommitted(ob), n) << when << ", ob " << ob;
      }
      for (const auto& [key, value] : puts[c]) {
        EXPECT_EQ(*db.TableGetCommitted(key), value) << when << ", " << key;
      }
    }
  };
  expect_state("live");
  ASSERT_TRUE(db.Sync().ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  expect_state("after restart");
}

}  // namespace
}  // namespace ariesrh
