// Record-granularity vs bucket (page-granularity) locking. The lock id is
// the only thing the knob changes — scopes, logging, and recovery key by
// record identity in both modes — so the two modes must be observationally
// equivalent on conflict-free histories, while their conflict behavior
// differs in exactly one way: page mode falsely serializes distinct keys
// that share a bucket chain.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/database.h"
#include "table/table_heap.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

Options LockModeOptions(bool record_locking) {
  Options options;
  options.table_record_locking = record_locking;
  return options;
}

/// Two distinct keys whose rids land in the same bucket chain (the page
/// lock unit), found by brute force — the hash makes them plentiful.
std::pair<std::string, std::string> SameBucketKeys() {
  const std::string first = "key:0";
  const size_t bucket = table::BucketOfRid(table::TableRid(first));
  for (int i = 1;; ++i) {
    std::string candidate = "key:" + std::to_string(i);
    if (table::BucketOfRid(table::TableRid(candidate)) == bucket) {
      return {first, candidate};
    }
  }
}

TEST(TableLockModeTest, PageModeFalselyConflictsOnSharedBucket) {
  const auto [k1, k2] = SameBucketKeys();
  Database db(LockModeOptions(false));
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.TablePut(t1, k1, "a").ok());
  TxnId t2 = *db.Begin();
  // Different key, same bucket: page-granularity locking serializes them.
  EXPECT_TRUE(db.TablePut(t2, k2, "b").IsBusy());
  EXPECT_TRUE(db.TableGet(t2, k2).status().IsBusy());
  ASSERT_TRUE(db.Commit(t1).ok());
  ASSERT_TRUE(db.TablePut(t2, k2, "b").ok());
  ASSERT_TRUE(db.Commit(t2).ok());
  EXPECT_EQ(**db.TableGetCommitted(k1), "a");
  EXPECT_EQ(**db.TableGetCommitted(k2), "b");
}

TEST(TableLockModeTest, RecordModeAdmitsSameBucketWriters) {
  const auto [k1, k2] = SameBucketKeys();
  Database db(LockModeOptions(true));
  TxnId t1 = *db.Begin();
  TxnId t2 = *db.Begin();
  ASSERT_TRUE(db.TablePut(t1, k1, "a").ok());
  ASSERT_TRUE(db.TablePut(t2, k2, "b").ok());
  // The same key still conflicts, of course.
  EXPECT_TRUE(db.TablePut(t2, k1, "clash").IsBusy());
  ASSERT_TRUE(db.Commit(t1).ok());
  ASSERT_TRUE(db.Commit(t2).ok());
  EXPECT_EQ(**db.TableGetCommitted(k1), "a");
  EXPECT_EQ(**db.TableGetCommitted(k2), "b");
}

TEST(TableLockModeTest, PageModeStillConflictsAcrossKeysAfterCommitFrees) {
  // The bucket lock is released at commit like any other lock: no residue.
  const auto [k1, k2] = SameBucketKeys();
  Database db(LockModeOptions(false));
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.TablePut(t1, k1, "a").ok());
  ASSERT_TRUE(db.Commit(t1).ok());
  TxnId t2 = *db.Begin();
  ASSERT_TRUE(db.TablePut(t2, k2, "b").ok());
  ASSERT_TRUE(db.Commit(t2).ok());
}

/// Runs one conflict-free mixed history (puts, overwrites, deletes, an
/// abort, a loser crashed mid-flight) and returns the final keyed state.
std::map<std::string, std::optional<std::string>> RunHistory(
    bool record_locking) {
  Database db(LockModeOptions(record_locking));
  const std::vector<std::string> keys = {"a", "b", "c", "d", "e"};

  TxnId setup = *db.Begin();
  for (const std::string& key : keys) {
    EXPECT_TRUE(db.TablePut(setup, key, "base-" + key).ok());
  }
  EXPECT_TRUE(db.Commit(setup).ok());

  TxnId committed = *db.Begin();
  EXPECT_TRUE(db.TablePut(committed, "a", "final-a").ok());
  EXPECT_TRUE(db.TableDelete(committed, "b").ok());
  EXPECT_TRUE(db.Commit(committed).ok());

  TxnId aborted = *db.Begin();
  EXPECT_TRUE(db.TablePut(aborted, "c", "aborted-c").ok());
  EXPECT_TRUE(db.TableDelete(aborted, "d").ok());
  EXPECT_TRUE(db.Abort(aborted).ok());

  TxnId loser = *db.Begin();
  EXPECT_TRUE(db.TablePut(loser, "e", "loser-e").ok());
  EXPECT_TRUE(db.TablePut(loser, "f", "loser-f").ok());
  db.SimulateCrash();
  EXPECT_TRUE(RestartAndAwait(db).ok());

  std::map<std::string, std::optional<std::string>> state;
  for (const std::string& key :
       {std::string("a"), std::string("b"), std::string("c"),
        std::string("d"), std::string("e"), std::string("f")}) {
    state[key] = *db.TableGetCommitted(key);
  }
  return state;
}

TEST(TableLockModeTest, ModesAreObservationallyEquivalent) {
  const auto record_state = RunHistory(true);
  const auto page_state = RunHistory(false);
  EXPECT_EQ(record_state, page_state);
  // And both match the model, not just each other.
  EXPECT_EQ(record_state.at("a"), std::optional<std::string>("final-a"));
  EXPECT_EQ(record_state.at("b"), std::nullopt);
  EXPECT_EQ(record_state.at("c"), std::optional<std::string>("base-c"));
  EXPECT_EQ(record_state.at("d"), std::optional<std::string>("base-d"));
  EXPECT_EQ(record_state.at("e"), std::optional<std::string>("base-e"));
  EXPECT_EQ(record_state.at("f"), std::nullopt);
}

TEST(TableLockModeTest, ScanStabilizesUnderBucketLocks) {
  // A scan in page mode takes bucket locks; it must still return every
  // committed record and respect a writer's exclusive bucket.
  Database db(LockModeOptions(false));
  TxnId setup = *db.Begin();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        db.TablePut(setup, "k" + std::to_string(i), std::to_string(i)).ok());
  }
  ASSERT_TRUE(db.Commit(setup).ok());
  TxnId reader = *db.Begin();
  Result<std::vector<std::pair<std::string, std::string>>> all =
      db.TableScan(reader, "", 0);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 20u);
  ASSERT_TRUE(db.Commit(reader).ok());

  TxnId writer = *db.Begin();
  ASSERT_TRUE(db.TablePut(writer, "k0", "dirty").ok());
  TxnId blocked = *db.Begin();
  EXPECT_TRUE(db.TableScan(blocked, "", 0).status().IsBusy());
  ASSERT_TRUE(db.Commit(writer).ok());
  ASSERT_TRUE(db.Commit(blocked).ok());
}

}  // namespace
}  // namespace ariesrh
