// The exposition a fixed workload renders: a 1-shard engine's page matches
// a checked-in golden file line for line (timing-dependent histogram lines
// aside), and a 2-shard engine labels every counter series with its shard
// and sums them into Database::stats().

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "obs/metrics.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

// A fixed single-threaded workload that reaches every layer: commits, an
// abort, a delegation, table operations, a checkpoint, a backup (1 shard
// only), an archive, then a crash with a loser and a full restart.
void RunFixedWorkload(Database* db) {
  for (ObjectId ob = 1; ob <= 8; ++ob) {
    TxnId t = *db->Begin();
    ASSERT_TRUE(db->Set(t, ob, static_cast<int64_t>(ob)).ok());
    ASSERT_TRUE(db->TablePut(t, "k" + std::to_string(ob), "v").ok());
    ASSERT_TRUE(db->Commit(t).ok());
  }
  TxnId aborted = *db->Begin();
  ASSERT_TRUE(db->Add(aborted, 1, 5).ok());
  ASSERT_TRUE(db->Abort(aborted).ok());
  TxnId from = *db->Begin();
  TxnId to = *db->Begin();
  ASSERT_TRUE(db->Set(from, 2, 20).ok());
  ASSERT_TRUE(db->Delegate(from, to, DelegationSpec::Objects({2})).ok());
  ASSERT_TRUE(db->Commit(from).ok());
  ASSERT_TRUE(db->Commit(to).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  if (db->num_shards() == 1) {
    ASSERT_TRUE(db->Backup().ok());
  }
  ASSERT_TRUE(db->ArchiveLog().ok());
  TxnId reader = *db->Begin();
  ASSERT_TRUE(db->TableGet(reader, "k3").ok());
  ASSERT_TRUE(db->TableDelete(reader, "k4").ok());
  ASSERT_TRUE(db->Commit(reader).ok());
  TxnId loser = *db->Begin();
  ASSERT_TRUE(db->Set(loser, 3, 30).ok());
  ASSERT_TRUE(db->TablePut(loser, "k5", "w").ok());
  ASSERT_TRUE(db->Sync().ok());
  db->SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(*db).ok());
  TxnId after = *db->Begin();
  ASSERT_TRUE(db->Set(after, 1, 1).ok());
  ASSERT_TRUE(db->Commit(after).ok());
}

// Expose() without the histogram `_bucket` and `_sum` lines, whose values
// depend on timing.
std::string ExposeWithoutTimings(const obs::MetricsRegistry& registry) {
  std::istringstream page(registry.Expose());
  std::string kept;
  for (std::string line; std::getline(page, line);) {
    const std::string name = line.substr(0, line.find_first_of(" {"));
    if (name.ends_with("_bucket") || name.ends_with("_sum")) continue;
    kept += line + "\n";
  }
  return kept;
}

TEST(ExpositionTest, OneShardPageMatchesGolden) {
  Database db;
  RunFixedWorkload(&db);
  std::ifstream golden(ARIESRH_TESTDATA_DIR "/expose_n1.golden");
  ASSERT_TRUE(golden.good());
  std::stringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(ExposeWithoutTimings(*db.metrics()), want.str());
}

TEST(ExpositionTest, TwoShardPageLabelsEveryShard) {
  Options options;
  options.num_shards = 2;
  Database db(options);
  RunFixedWorkload(&db);
  const obs::MetricsRegistry& registry = *db.metrics();
  const std::string page = registry.Expose();
  EXPECT_EQ(page.find("_shard"), std::string::npos);  // no index suffixes
  const Stats totals = db.stats();
  const std::string labels[] = {"shard=\"0\"", "shard=\"1\""};
  auto check_family = [&](const std::string& family, uint64_t total) {
    SCOPED_TRACE(family);
    size_t type_lines = 0;
    for (size_t at = page.find("# TYPE " + family + " counter\n");
         at != std::string::npos;
         at = page.find("# TYPE " + family + " counter\n", at + 1)) {
      ++type_lines;
    }
    EXPECT_EQ(type_lines, 1u);
    // The unlabelled series counts work no shard does.
    uint64_t sum = registry.FindCounter(family)->Value();
    for (const std::string& label : labels) {
      const obs::Counter* series = registry.FindCounter(family, label);
      ASSERT_NE(series, nullptr);
      EXPECT_NE(page.find(family + "{" + label + "} " +
                          std::to_string(series->Value()) + "\n"),
                std::string::npos);
      sum += series->Value();
    }
    EXPECT_EQ(sum, total);
  };
#define ARIESRH_CHECK_FAMILY(group, field, label) \
  check_family("ariesrh_" #field, totals.field.value());
  ARIESRH_STATS_FIELDS(ARIESRH_CHECK_FAMILY)
#undef ARIESRH_CHECK_FAMILY
  // Each shard reads back its own work, not the engine's.
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_GT(db.shard(i)->stats().log_appends.value(), 0u);
    EXPECT_LT(db.shard(i)->stats().log_appends.value(),
              totals.log_appends.value());
  }
}

// Database::stats() sums each family's series under the registry mutex
// while committers on both shards count into their own series (CI runs
// this under TSan); every snapshot is monotone.
TEST(ExpositionTest, StatsReadsWhileShardsCount) {
  Options options;
  options.num_shards = 2;
  options.group_commit = true;
  Database db(options);
  constexpr int kTxnsEach = 100;
  std::atomic<bool> failed{false};
  std::vector<std::thread> committers;
  for (int w = 0; w < 2; ++w) {
    committers.emplace_back([&, w] {
      for (int i = 0; i < kTxnsEach; ++i) {
        Result<TxnId> t = db.Begin();
        if (!t.ok() || !db.Add(*t, 1 + w, 1).ok() || !db.Commit(*t).ok()) {
          failed = true;
        }
      }
    });
  }
  uint64_t last = 0;
  while (last < 2 * kTxnsEach && !failed.load()) {
    const uint64_t committed = db.stats().txns_committed.value();
    EXPECT_GE(committed, last);
    last = committed;
  }
  for (std::thread& committer : committers) committer.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(db.stats().txns_committed.value(), 2u * kTxnsEach);
}

}  // namespace
}  // namespace ariesrh
