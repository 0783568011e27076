// The collected redo plan: kAnalysisCollectRedo keys every redo-eligible
// record by its page (or table redo bucket) in LSN order within the page,
// and the restart work built on it — page-partitioned redo at kFull and
// on-demand redo at kInstant — applies exactly the records it always has.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/database.h"
#include "recovery/analysis.h"
#include "table/table_heap.h"
#include "util/random.h"

namespace ariesrh {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + ".ariesrh";
}

// A fixed seeded history over plain objects and table keys: commits,
// aborts, delegations to a partner that may itself stay a loser, a fuzzy
// checkpoint, and a buffer-pool flush part-way so some redo records find
// their page already current. Single-threaded, so every run builds the same
// log; operations refused by a loser's lock are skipped the same way each
// time.
void BuildSeededHistory(Database* db) {
  constexpr int kTxns = 600;
  Random rng(20261017);
  TxnId partner = kInvalidTxn;
  for (int i = 0; i < kTxns; ++i) {
    const TxnId txn = *db->Begin();
    for (int u = 0; u < 3; ++u) {
      db->Add(txn, rng.Uniform(2048), 1 + static_cast<int64_t>(rng.Uniform(9)));
    }
    db->TablePut(txn, "key" + std::to_string(rng.Uniform(300)),
                 "value" + std::to_string(i));
    if (rng.Percent(10)) {
      db->TableDelete(txn, "key" + std::to_string(rng.Uniform(300)));
    }
    if (partner != kInvalidTxn && rng.Percent(20)) {
      db->Delegate(txn, partner, DelegationSpec::All());
    }
    const uint64_t fate = rng.Uniform(100);
    if (fate < 75) {
      db->Commit(txn);
    } else if (fate < 85) {
      db->Abort(txn);
    } else {
      partner = txn;  // left active: a loser at the crash
    }
    if (i == kTxns / 3) {
      ASSERT_TRUE(db->shard(0)->buffer_pool()->FlushAll().ok());
    }
    if (i == kTxns / 2) {
      ASSERT_TRUE(db->Checkpoint().ok());
    }
  }
  ASSERT_TRUE(db->Sync().ok());
}

TEST(RedoPlanTest, PlanIsKeyedByPageInLsnOrder) {
  const std::string path = TempPath("redo_plan_order");
  {
    Database db;
    BuildSeededHistory(&db);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  Result<Database::OpenResult> opened = Database::Open({}, path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Database& db = *opened->db;

  // Collect over the recovered log from its head: every page and table
  // record is redo-eligible.
  Stats stats;
  ForwardPassOptions opts;
  opts.kind = ForwardPassKind::kAnalysisCollectRedo;
  Result<ForwardPassResult> fwd =
      ForwardPass(DelegationMode::kRH, db.shard(0)->log_manager(),
                  db.shard(0)->buffer_pool(), &stats, /*ckpt=*/nullptr,
                  /*ckpt_end_lsn=*/0, opts);
  ASSERT_TRUE(fwd.ok()) << fwd.status().ToString();
  const RedoPlan& plan = fwd->redo_plan;

  uint64_t records = 0;
  uint64_t plain_pages = 0;
  uint64_t table_buckets = 0;
  for (const auto& [page, recs] : plan.pages) {
    ASSERT_FALSE(recs.empty()) << "page " << page;
    for (size_t i = 0; i < recs.size(); ++i) {
      const RedoEntry& rec = recs[i];
      EXPECT_EQ(page, IsTableRecord(rec.type) ? table::RedoBucketOf(rec.object)
                                              : PageOf(rec.object))
          << "LSN " << rec.lsn;
      if (i > 0) {
        EXPECT_LT(recs[i - 1].lsn, rec.lsn) << "page " << page;
      }
    }
    records += recs.size();
    (page >= table::kHeapPageBase ? table_buckets : plain_pages) += 1;
  }
  EXPECT_EQ(records, plan.records);
  EXPECT_GT(plain_pages, 1u);
  EXPECT_GT(table_buckets, 1u);

  // The plan holds exactly the page and table records of the log.
  uint64_t expected = 0;
  for (Lsn lsn = kFirstLsn; lsn <= db.shard(0)->log_manager()->flushed_lsn();
       ++lsn) {
    Result<LogRecord> rec = db.shard(0)->log_manager()->Read(lsn);
    ASSERT_TRUE(rec.ok());
    switch (rec->type) {
      case LogRecordType::kUpdate:
      case LogRecordType::kClr:
      case LogRecordType::kTableInsert:
      case LogRecordType::kTableUpdate:
      case LogRecordType::kTableDelete:
      case LogRecordType::kTableClr:
        ++expected;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(plan.records, expected);
  std::remove(path.c_str());
}

// Work counts pinned to the values the engine produced when the plan was
// a flat list re-bucketed by each consumer: keying it by page changes the
// cost per record, never which records get applied.
TEST(RedoPlanTest, RedoCountsMatchThePinnedHistory) {
  constexpr uint64_t kFullRedone = 1774;
  constexpr uint64_t kInstantRedone = 1774;
  const std::string path = TempPath("redo_plan_counts");
  {
    Database db;
    BuildSeededHistory(&db);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  for (size_t threads : {1, 2, 4}) {
    Options options;
    options.recovery_threads = threads;
    Result<Database::OpenResult> db = Database::Open(options, path);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Result<RecoveryManager::Outcome> outcome = db->recovery->Await();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->records_redone, kFullRedone) << threads << " threads";
  }
  Options options;
  options.recovery_mode = RecoveryMode::kInstant;
  options.recovery_threads = 2;
  Result<Database::OpenResult> db = Database::Open(options, path);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Result<RecoveryManager::Outcome> outcome = db->recovery->Await();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->records_redone, kInstantRedone);
  EXPECT_EQ(db->db->stats().ondemand_redo_records, kInstantRedone);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ariesrh
