// Stable-state persistence: SaveTo/LoadFrom round trips, and Database
// save/open across "process" boundaries (a fresh Database object).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/database.h"
#include "storage/simulated_disk.h"

namespace ariesrh {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name + ".ariesrh";
}

TEST(DiskPersistenceTest, RoundTripsPagesLogAndMetadata) {
  Stats stats;
  SimulatedDisk disk(&stats);
  ASSERT_TRUE(disk.WritePage(3, "image-three").ok());
  disk.AppendLogRecords({"rec1", "rec2", "rec3"});
  disk.SetMasterRecord(2);
  disk.ArchiveLogPrefix(2);  // drop rec1: base becomes 1
  const std::string path = TempPath("roundtrip");
  ASSERT_TRUE(disk.SaveTo(path).ok());

  Stats stats2;
  Result<SimulatedDisk> back = SimulatedDisk::LoadFrom(path, &stats2);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(**back->ReadPage(3), "image-three");
  EXPECT_EQ(back->master_record(), 2u);
  EXPECT_EQ(back->first_retained_lsn(), 2u);
  EXPECT_EQ(back->stable_end_lsn(), 3u);
  EXPECT_EQ(*back->ReadLogRecord(2), "rec2");
  EXPECT_TRUE(back->ReadLogRecord(1).status().IsNotFound());
  std::remove(path.c_str());
}

TEST(DiskPersistenceTest, MissingFileIsIOError) {
  Stats stats;
  EXPECT_TRUE(SimulatedDisk::LoadFrom("/nonexistent/nowhere", &stats)
                  .status()
                  .IsIOError());
}

TEST(DiskPersistenceTest, CorruptImageDetected) {
  Stats stats;
  SimulatedDisk disk(&stats);
  disk.AppendLogRecords({"rec"});
  const std::string path = TempPath("corrupt");
  ASSERT_TRUE(disk.SaveTo(path).ok());
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string data = buffer.str();
    data[data.size() / 2] ^= 0x20;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << data;
  }
  EXPECT_TRUE(
      SimulatedDisk::LoadFrom(path, &stats).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(DatabasePersistenceTest, SaveOpenRecoverPreservesCommittedState) {
  const std::string path = TempPath("db");
  {
    Database db;
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Set(t, 1, 10).ok());
    ASSERT_TRUE(db.Add(t, 2, 5).ok());
    ASSERT_TRUE(db.Commit(t).ok());
    TxnId loser = *db.Begin();
    ASSERT_TRUE(db.Set(loser, 3, 99).ok());
    ASSERT_TRUE(db.shard(0)->log_manager()->FlushAll().ok());
    ASSERT_TRUE(db.SaveTo(path).ok());
  }  // the "process" exits

  Result<Database::OpenResult> reopened = Database::Open({}, path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Database& db = *reopened->db;
  // The one open surface already ran restart recovery (kFull by default):
  // the database comes back live, the handle terminal.
  EXPECT_FALSE(db.NeedsRecovery());
  EXPECT_TRUE(reopened->recovery->done());
  ASSERT_TRUE(reopened->recovery->Await().ok());
  EXPECT_EQ(*db.ReadCommitted(1), 10);
  EXPECT_EQ(*db.ReadCommitted(2), 5);
  EXPECT_EQ(*db.ReadCommitted(3), 0);  // loser rolled back on reopen
  std::remove(path.c_str());
}

TEST(DatabasePersistenceTest, DelegationStateSurvivesSaveOpen) {
  const std::string path = TempPath("db-deleg");
  {
    Database db;
    TxnId t0 = *db.Begin();
    TxnId t1 = *db.Begin();
    ASSERT_TRUE(db.Set(t0, 5, 42).ok());
    ASSERT_TRUE(db.Delegate(t0, t1, DelegationSpec::Objects({5})).ok());
    ASSERT_TRUE(db.Commit(t1).ok());  // delegatee commits; t0 still active
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  Result<Database::OpenResult> reopened = Database::Open({}, path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*reopened->db->ReadCommitted(5), 42);
  std::remove(path.c_str());
}

TEST(DatabasePersistenceTest, UnflushedTailIsNotSaved) {
  const std::string path = TempPath("db-tail");
  {
    Database db;
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Set(t, 1, 10).ok());
    // No commit, no flush: the update only lives in the volatile tail.
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  Result<Database::OpenResult> reopened = Database::Open({}, path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*reopened->db->ReadCommitted(1), 0);
  std::remove(path.c_str());
}

TEST(DatabasePersistenceTest, SaveOpenCycleRepeats) {
  const std::string path = TempPath("db-cycles");
  {
    Database db;
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Add(t, 1, 1).ok());
    ASSERT_TRUE(db.Commit(t).ok());
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  for (int cycle = 2; cycle <= 4; ++cycle) {
    Result<Database::OpenResult> reopened = Database::Open({}, path);
    ASSERT_TRUE(reopened.ok());
    Database& db = *reopened->db;
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Add(t, 1, 1).ok());
    ASSERT_TRUE(db.Commit(t).ok());
    ASSERT_TRUE(db.SaveTo(path).ok());
    EXPECT_EQ(*db.ReadCommitted(1), cycle);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ariesrh
