// Crash-during-recovery and undo-strategy ablation tests.
//
// The paper's correctness argument (Section 4.1) must hold even when the
// system fails *during* recovery: CLRs and the compensated set make the
// undo pass idempotent, so recovery converges no matter how many times it
// is interrupted. The full-scan undo ablation must produce the identical
// end state while examining far more records.

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/oracle.h"
#include "util/random.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

// A delegation-heavy history with several losers so the undo pass has real
// work to be interrupted in.
void BuildHistory(Database* db, HistoryOracle* oracle) {
  std::vector<TxnId> txns;
  for (int i = 0; i < 6; ++i) {
    TxnId t = *db->Begin();
    oracle->Begin(t);
    txns.push_back(t);
  }
  auto add = [&](int who, ObjectId ob, int64_t delta) {
    ASSERT_TRUE(db->Add(txns[who], ob, delta).ok());
    oracle->Update(txns[who], ob, UpdateKind::kAdd, delta);
  };
  auto delegate = [&](int from, int to, std::vector<ObjectId> obs) {
    // DelegationMode::kDisabled rejects delegation; the history simply
    // proceeds without it (the oracle agrees: nothing happened).
    Status status =
        db->Delegate(txns[from], txns[to], DelegationSpec::Objects(obs));
    if (status.code() == StatusCode::kNotSupported) return;
    ASSERT_TRUE(status.ok()) << status.ToString();
    oracle->Delegate(txns[from], txns[to], obs);
  };
  add(0, 1, 10);
  add(1, 1, 20);
  add(0, 2, 30);
  add(2, 3, 40);
  delegate(0, 3, {1, 2});
  add(0, 1, 50);
  add(3, 4, 60);
  delegate(2, 4, {3});
  add(4, 3, 70);
  // Fates: t1 and t5 commit; everyone else is a loser at the crash.
  ASSERT_TRUE(db->Commit(txns[1]).ok());
  oracle->Commit(txns[1]);
  ASSERT_TRUE(db->Add(txns[5], 9, 80).ok());
  oracle->Update(txns[5], 9, UpdateKind::kAdd, 80);
  ASSERT_TRUE(db->Commit(txns[5]).ok());
  oracle->Commit(txns[5]);
  ASSERT_TRUE(db->shard(0)->log_manager()->FlushAll().ok());
}

void VerifyAgainstOracle(Database* db, const HistoryOracle& oracle) {
  for (const auto& [ob, expected] : oracle.ExpectedValues()) {
    Result<int64_t> got = db->ReadCommitted(ob);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, expected) << "object " << ob;
  }
}

class CrashDuringRecoveryTest
    : public ::testing::TestWithParam<std::tuple<DelegationMode, uint64_t>> {
};

INSTANTIATE_TEST_SUITE_P(
    ModesAndCrashPoints, CrashDuringRecoveryTest,
    ::testing::Combine(::testing::Values(DelegationMode::kDisabled,
                                         DelegationMode::kRH,
                                         DelegationMode::kEager,
                                         DelegationMode::kLazyRewrite),
                       ::testing::Values(1u, 2u, 3u, 5u)),
    [](const auto& info) {
      std::string name = DelegationModeName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_after" + std::to_string(std::get<1>(info.param));
    });

TEST_P(CrashDuringRecoveryTest, InterruptedUndoConverges) {
  const auto [mode, crash_after] = GetParam();
  Options options;
  options.delegation_mode = mode;
  Database db(options);
  HistoryOracle oracle;
  BuildHistory(&db, &oracle);
  if (::testing::Test::HasFatalFailure()) return;

  db.SimulateCrash();
  oracle.Crash();

  // First recovery attempt dies mid-undo.
  db.mutable_options()->faults.crash_after_undo_steps = crash_after;
  Result<RecoveryManager::Outcome> first = RestartAndAwait(db);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsIOError());
  EXPECT_TRUE(db.NeedsRecovery());

  // Second attempt runs to completion and must converge to the oracle.
  db.mutable_options()->faults.crash_after_undo_steps = 0;
  Result<RecoveryManager::Outcome> second = RestartAndAwait(db);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  VerifyAgainstOracle(&db, oracle);
}

TEST_P(CrashDuringRecoveryTest, RepeatedlyInterruptedUndoConverges) {
  const auto [mode, crash_after] = GetParam();
  Options options;
  options.delegation_mode = mode;
  Database db(options);
  HistoryOracle oracle;
  BuildHistory(&db, &oracle);
  if (::testing::Test::HasFatalFailure()) return;

  db.SimulateCrash();
  oracle.Crash();

  // Keep crashing after `crash_after` undos until recovery completes; it
  // must make progress every time (CLRs persist) and converge.
  int attempts = 0;
  while (true) {
    ASSERT_LT(attempts, 100) << "recovery is not making progress";
    db.mutable_options()->faults.crash_after_undo_steps = crash_after;
    Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
    ++attempts;
    if (outcome.ok()) break;
    ASSERT_TRUE(outcome.status().IsIOError());
  }
  db.mutable_options()->faults.crash_after_undo_steps = 0;
  VerifyAgainstOracle(&db, oracle);
}

TEST(UndoStrategyAblationTest, FullScanMatchesClusterSweepState) {
  for (UndoStrategy strategy :
       {UndoStrategy::kScopeClusters, UndoStrategy::kFullScan}) {
    Options options;
    options.undo_strategy = strategy;
    Database db(options);
    HistoryOracle oracle;
    BuildHistory(&db, &oracle);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    db.SimulateCrash();
    oracle.Crash();
    ASSERT_TRUE(RestartAndAwait(db).ok()) << UndoStrategyName(strategy);
    VerifyAgainstOracle(&db, oracle);
  }
}

TEST(UndoStrategyAblationTest, ClusterSweepExaminesFarFewerRecords) {
  auto examined_by = [](UndoStrategy strategy) {
    Options options;
    options.undo_strategy = strategy;
    Database db(options);
    // Early loser, long winner middle, late loser — the cluster sweep's
    // best case, the full scan's worst.
    TxnId early = *db.Begin();
    EXPECT_TRUE(db.Add(early, 1, 5).ok());
    for (int i = 0; i < 200; ++i) {
      TxnId w = *db.Begin();
      EXPECT_TRUE(db.Add(w, 2, 1).ok());
      EXPECT_TRUE(db.Commit(w).ok());
    }
    TxnId late = *db.Begin();
    EXPECT_TRUE(db.Add(late, 3, 7).ok());
    EXPECT_TRUE(db.shard(0)->log_manager()->FlushAll().ok());
    db.SimulateCrash();
    const Stats before = db.stats();
    EXPECT_TRUE(RestartAndAwait(db).ok());
    return db.stats().Delta(before).recovery_backward_examined;
  };
  const uint64_t clusters = examined_by(UndoStrategy::kScopeClusters);
  const uint64_t full = examined_by(UndoStrategy::kFullScan);
  EXPECT_LT(clusters, 5u);
  EXPECT_GT(full, 500u);
}

TEST(UndoStrategyAblationTest, InterruptedFullScanAlsoConverges) {
  Options options;
  options.undo_strategy = UndoStrategy::kFullScan;
  Database db(options);
  HistoryOracle oracle;
  BuildHistory(&db, &oracle);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  db.SimulateCrash();
  oracle.Crash();
  db.mutable_options()->faults.crash_after_undo_steps = 2;
  ASSERT_FALSE(RestartAndAwait(db).ok());
  db.mutable_options()->faults.crash_after_undo_steps = 0;
  ASSERT_TRUE(RestartAndAwait(db).ok());
  VerifyAgainstOracle(&db, oracle);
}

}  // namespace
}  // namespace ariesrh
