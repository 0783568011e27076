// Logical table log records: serialize/deserialize round trips for all four
// types, the ToString/DumpLog rendering, and TableKeyHistory reconstruction
// (including compensation marking and key-exact matching across rid space).

#include <gtest/gtest.h>

#include <string>

#include "core/database.h"
#include "table/table_heap.h"
#include "wal/log_dump.h"
#include "wal/log_record.h"

namespace ariesrh {
namespace {

void ExpectRoundTrip(const LogRecord& rec) {
  Result<LogRecord> copy = LogRecord::Deserialize(rec.Serialize());
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  EXPECT_EQ(copy->type, rec.type);
  EXPECT_EQ(copy->txn_id, rec.txn_id);
  EXPECT_EQ(copy->prev_lsn, rec.prev_lsn);
  EXPECT_EQ(copy->object, rec.object);
  EXPECT_EQ(copy->key, rec.key);
  EXPECT_EQ(copy->before_image, rec.before_image);
  EXPECT_EQ(copy->after_image, rec.after_image);
  EXPECT_EQ(copy->table_remove, rec.table_remove);
  EXPECT_EQ(copy->compensated_lsn, rec.compensated_lsn);
  EXPECT_EQ(copy->undo_next_lsn, rec.undo_next_lsn);
}

TEST(TableLogRecordTest, AllFourTypesRoundTrip) {
  const ObjectId rid = table::TableRid("k");
  ExpectRoundTrip(LogRecord::MakeTableInsert(7, 3, rid, "k", "value"));
  ExpectRoundTrip(LogRecord::MakeTableUpdate(7, 4, rid, "k", "old", "new"));
  ExpectRoundTrip(LogRecord::MakeTableDelete(7, 5, rid, "k", "old"));
  ExpectRoundTrip(LogRecord::MakeTableClr(7, 6, rid, "k", /*remove=*/true,
                                          std::string(), 4, 3));
  ExpectRoundTrip(LogRecord::MakeTableClr(7, 6, rid, "k", /*remove=*/false,
                                          "restored", 5, 2));
}

TEST(TableLogRecordTest, BinaryImagesSurviveTheRoundTrip) {
  const std::string key("k\0ey", 4);
  const std::string before("\xff\x00\x01", 3);
  const std::string after(1024, '\xaa');
  ExpectRoundTrip(LogRecord::MakeTableUpdate(1, 1, table::TableRid(key), key,
                                             before, after));
}

TEST(TableLogRecordTest, CorruptImageRejected) {
  LogRecord rec =
      LogRecord::MakeTableInsert(7, 3, table::TableRid("k"), "k", "value");
  std::string image = rec.Serialize();
  image[image.size() / 2] ^= 0x04;
  EXPECT_TRUE(LogRecord::Deserialize(image).status().IsCorruption());
}

TEST(TableLogRecordTest, RenderingNamesTheLogicalTypes) {
  const ObjectId rid = table::TableRid("k");
  EXPECT_NE(LogRecord::MakeTableInsert(7, 3, rid, "k", "v")
                .ToString()
                .find("TBL_INSERT"),
            std::string::npos);
  EXPECT_NE(LogRecord::MakeTableUpdate(7, 3, rid, "k", "a", "b")
                .ToString()
                .find("TBL_UPDATE"),
            std::string::npos);
  EXPECT_NE(LogRecord::MakeTableDelete(7, 3, rid, "k", "a")
                .ToString()
                .find("TBL_DELETE"),
            std::string::npos);
  EXPECT_NE(LogRecord::MakeTableClr(7, 3, rid, "k", true, "", 2, 1)
                .ToString()
                .find("TBL_CLR"),
            std::string::npos);
}

class TableLogDumpTest : public ::testing::Test {
 protected:
  Database db_;
};

TEST_F(TableLogDumpTest, DumpRendersTableWrites) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.TablePut(t, "k", "v1").ok());
  ASSERT_TRUE(db_.TablePut(t, "k", "v2").ok());
  ASSERT_TRUE(db_.TableDelete(t, "k").ok());
  ASSERT_TRUE(db_.Abort(t).ok());
  Result<std::string> dump = DumpLog(*db_.shard(0)->log_manager());
  ASSERT_TRUE(dump.ok());
  EXPECT_NE(dump->find("TBL_INSERT"), std::string::npos);
  EXPECT_NE(dump->find("TBL_UPDATE"), std::string::npos);
  EXPECT_NE(dump->find("TBL_DELETE"), std::string::npos);
  EXPECT_NE(dump->find("TBL_CLR"), std::string::npos);
}

TEST_F(TableLogDumpTest, KeyHistoryTracksOneKeyAcrossWriters) {
  TxnId a = *db_.Begin();
  ASSERT_TRUE(db_.TablePut(a, "k", "v1").ok());
  ASSERT_TRUE(db_.TablePut(a, "other", "noise").ok());
  ASSERT_TRUE(db_.Commit(a).ok());
  TxnId b = *db_.Begin();
  ASSERT_TRUE(db_.TablePut(b, "k", "v2").ok());
  ASSERT_TRUE(db_.Commit(b).ok());
  TxnId c = *db_.Begin();
  ASSERT_TRUE(db_.TableDelete(c, "k").ok());
  ASSERT_TRUE(db_.Commit(c).ok());

  Result<std::vector<TableHistoryEntry>> history =
      TableKeyHistory(*db_.shard(0)->log_manager(), "k");
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 3u);
  EXPECT_EQ((*history)[0].type, LogRecordType::kTableInsert);
  EXPECT_EQ((*history)[0].after, "v1");
  EXPECT_FALSE((*history)[0].compensated);
  EXPECT_EQ((*history)[1].type, LogRecordType::kTableUpdate);
  EXPECT_EQ((*history)[1].before, "v1");
  EXPECT_EQ((*history)[1].after, "v2");
  EXPECT_EQ((*history)[2].type, LogRecordType::kTableDelete);
  EXPECT_EQ((*history)[2].before, "v2");
  EXPECT_EQ((*history)[2].writer, c);
  EXPECT_LT((*history)[0].lsn, (*history)[1].lsn);
  EXPECT_LT((*history)[1].lsn, (*history)[2].lsn);
}

TEST_F(TableLogDumpTest, KeyHistoryMarksCompensatedWrites) {
  TxnId t = *db_.Begin();
  ASSERT_TRUE(db_.TablePut(t, "k", "doomed").ok());
  ASSERT_TRUE(db_.Abort(t).ok());
  Result<std::vector<TableHistoryEntry>> history =
      TableKeyHistory(*db_.shard(0)->log_manager(), "k");
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 2u);
  EXPECT_EQ((*history)[0].type, LogRecordType::kTableInsert);
  EXPECT_TRUE((*history)[0].compensated);
  EXPECT_EQ((*history)[1].type, LogRecordType::kTableClr);
  // The CLR undoes an insert: its action is a remove.
  EXPECT_TRUE((*history)[1].after.empty());
  EXPECT_FALSE((*history)[1].compensated);
}

}  // namespace
}  // namespace ariesrh
