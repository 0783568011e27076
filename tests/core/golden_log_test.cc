// The N = 1 golden log: one fixed single-shard history (golden_history.h)
// against the image an earlier build of the engine saved from it
// (testdata/golden_n1.img). Replaying the history must produce the same
// stable log, record for record and byte for byte, and the same stable
// pages; opening the saved image must recover the state the executable
// oracle (core/oracle.h) predicts, under both restart modes.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

#include "core/database.h"
#include "golden_history.h"
#include "storage/simulated_disk.h"
#include "util/stats.h"

namespace ariesrh {
namespace {

const std::string kGoldenImage =
    std::string(ARIESRH_TESTDATA_DIR) + "/golden_n1.img";

/// The stable pages by content (the disk shares its images by pointer).
std::map<PageId, std::string> PageBytes(const SimulatedDisk& disk) {
  std::map<PageId, std::string> bytes;
  for (const auto& [id, image] : disk.ClonePages()) bytes.emplace(id, *image);
  return bytes;
}

TEST(GoldenLogTest, HistoryReplaysTheSavedLogByteForByte) {
  Stats stats;
  Result<SimulatedDisk> golden = SimulatedDisk::LoadFrom(kGoldenImage, &stats);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();

  Database db;
  ASSERT_TRUE(golden::RunGoldenHistory(&db).has_value());
  SimulatedDisk* disk = db.shard(0)->disk();
  ASSERT_EQ(disk->first_retained_lsn(), golden->first_retained_lsn());
  ASSERT_EQ(disk->stable_end_lsn(), golden->stable_end_lsn());
  for (Lsn lsn = golden->first_retained_lsn(); lsn <= golden->stable_end_lsn();
       ++lsn) {
    Result<std::string> want = golden->ReadLogRecord(lsn);
    Result<std::string> got = disk->ReadLogRecord(lsn);
    ASSERT_TRUE(want.ok() && got.ok()) << "lsn " << lsn;
    EXPECT_EQ(*got, *want) << "lsn " << lsn;
  }
  EXPECT_EQ(disk->master_record(), golden->master_record());
  EXPECT_EQ(PageBytes(*disk), PageBytes(*golden));
}

class GoldenImageTest : public ::testing::TestWithParam<RecoveryMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, GoldenImageTest,
                         ::testing::Values(RecoveryMode::kFull,
                                           RecoveryMode::kInstant),
                         [](const auto& info) {
                           return std::string(RecoveryModeName(info.param));
                         });

TEST_P(GoldenImageTest, SavedImageRecoversToTheOracle) {
  // The expectation comes from running the history on a scratch engine.
  Database scratch;
  const std::optional<golden::Expected> want =
      golden::RunGoldenHistory(&scratch);
  ASSERT_TRUE(want.has_value());

  Options options;
  options.recovery_mode = GetParam();
  Result<Database::OpenResult> opened = Database::Open(options, kGoldenImage);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Result<RecoveryManager::Outcome> outcome = opened->recovery->Await();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->losers, 2u);  // t1 and t8
  Database& db = *opened->db;
  for (ObjectId ob : golden::kObjects) {
    EXPECT_EQ(*db.ReadCommitted(ob), want->oracle.ExpectedValue(ob))
        << "object " << ob;
  }
  for (const auto& [key, value] : want->table) {
    EXPECT_EQ(*db.TableGetCommitted(key), value) << "key " << key;
  }
  // The restarted engine keeps working, its ids past the image's.
  const TxnId t = *db.Begin();
  ASSERT_TRUE(db.Set(t, 1, 1).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 1);
}

}  // namespace
}  // namespace ariesrh
