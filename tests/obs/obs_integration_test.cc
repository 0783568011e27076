// Observability wired through the engine: the registry reports real work,
// the trace records the crash/recovery story, and Stats stays a consistent
// view over the registry.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

// Runs a small workload with winners and a loser, then crashes.
void RunWorkloadAndCrash(Database* db) {
  TxnId t1 = *db->Begin();
  TxnId t2 = *db->Begin();
  ASSERT_TRUE(db->Set(t1, 1, 10).ok());
  ASSERT_TRUE(db->Add(t2, 2, 5).ok());
  ASSERT_TRUE(db->Add(t2, 2, 5).ok());
  ASSERT_TRUE(db->Commit(t1).ok());
  // t2 stays active: a loser at the crash.
  ASSERT_TRUE(db->Sync().ok());
  db->SimulateCrash();
}

// Pass-boundary (kind) pairs found in the trace, in order.
std::vector<std::pair<obs::RecoveryPassKind, obs::RecoveryPassKind>>
ExtractPassPairs(obs::EventTrace* trace) {
  std::vector<std::pair<obs::RecoveryPassKind, obs::RecoveryPassKind>> pairs;
  std::vector<obs::RecoveryPassKind> open;
  for (const obs::TraceEvent& event : trace->Snapshot()) {
    if (event.type == obs::TraceEventType::kRecoveryPassBegin) {
      open.push_back(static_cast<obs::RecoveryPassKind>(event.a));
    } else if (event.type == obs::TraceEventType::kRecoveryPassEnd) {
      EXPECT_FALSE(open.empty()) << "pass end without begin";
      if (!open.empty()) {
        pairs.emplace_back(open.back(),
                           static_cast<obs::RecoveryPassKind>(event.a));
        open.pop_back();
      }
    }
  }
  EXPECT_TRUE(open.empty()) << "unclosed recovery pass";
  return pairs;
}

TEST(ObsIntegrationTest, CountersNonZeroAfterWorkload) {
  Database db;
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t1, 1, 42).ok());
  ASSERT_TRUE(db.Commit(t1).ok());
  ASSERT_TRUE(db.Sync().ok());

  obs::MetricsRegistry* registry = db.metrics();
  ASSERT_NE(registry->FindCounter("ariesrh_log_appends"), nullptr);
  EXPECT_GT(registry->FindCounter("ariesrh_log_appends")->Value(), 0u);
  EXPECT_GT(registry->FindCounter("ariesrh_lock_acquires")->Value(), 0u);
  EXPECT_GT(registry->FindCounter("ariesrh_txns_committed")->Value(), 0u);

  // The Prometheus page carries the same numbers.
  const std::string page = registry->Expose();
  EXPECT_NE(page.find("ariesrh_log_appends"), std::string::npos);
  EXPECT_EQ(page.find("ariesrh_log_appends 0\n"), std::string::npos);
}

TEST(ObsIntegrationTest, StatsIsAViewOverTheRegistry) {
  Database db;
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t1, 1, 1).ok());
  ASSERT_TRUE(db.Commit(t1).ok());

  // Same storage, two views.
  EXPECT_EQ(db.stats().log_appends.value(),
            db.metrics()->FindCounter("ariesrh_log_appends")->Value());
  EXPECT_EQ(db.stats().txns_committed.value(),
            db.metrics()->FindCounter("ariesrh_txns_committed")->Value());

  // Snapshot/Delta stays value-semantic and detached from the registry.
  Stats before = db.stats();
  TxnId t2 = *db.Begin();
  ASSERT_TRUE(db.Set(t2, 2, 2).ok());
  ASSERT_TRUE(db.Commit(t2).ok());
  Stats delta = db.stats().Delta(before);
  EXPECT_EQ(delta.txns_committed.value(), 1u);
  EXPECT_EQ(before.txns_committed.value(), 1u);  // unchanged by new work
}

TEST(ObsIntegrationTest, MergedRecoveryEmitsOnePassPairEach) {
  Database db;  // default: merged forward pass
  RunWorkloadAndCrash(&db);
  const uint64_t emitted_before = db.trace()->total_emitted();
  ASSERT_TRUE(RestartAndAwait(db).ok());

  std::map<obs::RecoveryPassKind, int> count;
  for (const auto& [begin, end] : ExtractPassPairs(db.trace())) {
    EXPECT_EQ(begin, end);
    ++count[begin];
  }
  // Exactly one merged forward pair and one undo pair for the restart.
  EXPECT_EQ(count[obs::RecoveryPassKind::kMergedForward], 1);
  EXPECT_EQ(count[obs::RecoveryPassKind::kUndo], 1);
  EXPECT_EQ(count[obs::RecoveryPassKind::kAnalysis], 0);
  EXPECT_EQ(count[obs::RecoveryPassKind::kRedo], 0);
  EXPECT_GT(db.trace()->total_emitted(), emitted_before);

  // Recovery metrics are non-zero after the restart.
  EXPECT_GT(db.metrics()->FindCounter("ariesrh_recovery_passes")->Value(),
            0u);
  EXPECT_GT(
      db.metrics()
          ->FindCounter("ariesrh_recovery_forward_records")->Value(),
      0u);
  obs::Histogram* pass_ns =
      db.metrics()->FindHistogram("ariesrh_recovery_pass_ns");
  ASSERT_NE(pass_ns, nullptr);
  EXPECT_EQ(pass_ns->Count(), 2u);  // merged forward + undo
}

TEST(ObsIntegrationTest, ThreePassRecoveryEmitsAnalysisRedoUndoPairs) {
  // Parallel restart splits the forward sweep: analysis collects the redo
  // plan, a separate redo pass replays it, then the undo pass runs.
  Options options;
  options.recovery_threads = 2;
  Database db(options);
  RunWorkloadAndCrash(&db);
  ASSERT_TRUE(RestartAndAwait(db).ok());

  std::map<obs::RecoveryPassKind, int> count;
  for (const auto& [begin, end] : ExtractPassPairs(db.trace())) {
    EXPECT_EQ(begin, end);
    ++count[begin];
  }
  // Three passes: exactly one pair per pass per restart.
  EXPECT_EQ(count[obs::RecoveryPassKind::kAnalysis], 1);
  EXPECT_EQ(count[obs::RecoveryPassKind::kRedo], 1);
  EXPECT_EQ(count[obs::RecoveryPassKind::kUndo], 1);
  EXPECT_EQ(count[obs::RecoveryPassKind::kMergedForward], 0);
}

TEST(ObsIntegrationTest, EachRestartAddsOneSetOfPassPairs) {
  Database db;
  RunWorkloadAndCrash(&db);
  ASSERT_TRUE(RestartAndAwait(db).ok());
  RunWorkloadAndCrash(&db);
  ASSERT_TRUE(RestartAndAwait(db).ok());

  std::map<obs::RecoveryPassKind, int> count;
  for (const auto& [begin, end] : ExtractPassPairs(db.trace())) {
    ++count[begin];
  }
  EXPECT_EQ(count[obs::RecoveryPassKind::kMergedForward], 2);
  EXPECT_EQ(count[obs::RecoveryPassKind::kUndo], 2);

  // The crash boundary itself is in the trace, twice.
  int crashes = 0;
  for (const obs::TraceEvent& event : db.trace()->Snapshot()) {
    if (event.type == obs::TraceEventType::kCrash) ++crashes;
  }
  EXPECT_EQ(crashes, 2);
}

TEST(ObsIntegrationTest, TraceRecordsTxnLifecycleAndLog) {
  Database db;
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t1, 1, 10).ok());
  ASSERT_TRUE(db.Commit(t1).ok());
  TxnId t2 = *db.Begin();
  ASSERT_TRUE(db.Set(t2, 2, 20).ok());
  ASSERT_TRUE(db.Abort(t2).ok());

  std::map<obs::TraceEventType, int> count;
  for (const obs::TraceEvent& event : db.trace()->Snapshot()) {
    ++count[event.type];
  }
  EXPECT_EQ(count[obs::TraceEventType::kTxnBegin], 2);
  EXPECT_EQ(count[obs::TraceEventType::kTxnCommit], 1);
  EXPECT_EQ(count[obs::TraceEventType::kTxnAbort], 1);
  EXPECT_GT(count[obs::TraceEventType::kLogAppend], 0);
  EXPECT_GT(count[obs::TraceEventType::kLockGrant], 0);
  EXPECT_GT(count[obs::TraceEventType::kLogFlush], 0);  // forced commit
}

TEST(ObsIntegrationTest, LockConflictIsCountedAndTraced) {
  Database db;
  TxnId t1 = *db.Begin();
  TxnId t2 = *db.Begin();
  ASSERT_TRUE(db.Set(t1, 1, 10).ok());
  EXPECT_TRUE(db.Set(t2, 1, 20).IsBusy());

  EXPECT_GT(db.metrics()->FindCounter("ariesrh_lock_conflicts")->Value(),
            0u);
  bool traced = false;
  for (const obs::TraceEvent& event : db.trace()->Snapshot()) {
    if (event.type == obs::TraceEventType::kLockConflict) traced = true;
  }
  EXPECT_TRUE(traced);
}

TEST(ObsIntegrationTest, DelegationAndClusterSkipVisibleInTrace) {
  Database db;  // default mode is kRH
  TxnId t1 = *db.Begin();
  TxnId t2 = *db.Begin();
  ASSERT_TRUE(db.Add(t1, 1, 5).ok());
  // Unrelated committed traffic widens the gap the undo sweep will skip.
  for (int i = 0; i < 20; ++i) {
    TxnId filler = *db.Begin();
    ASSERT_TRUE(db.Add(filler, 100 + i, 1).ok());
    ASSERT_TRUE(db.Commit(filler).ok());
  }
  ASSERT_TRUE(db.Delegate(t1, t2, DelegationSpec::Objects({1})).ok());
  ASSERT_TRUE(db.Commit(t1).ok());
  ASSERT_TRUE(db.Sync().ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());  // t2 is a loser: scope sweep runs

  std::map<obs::TraceEventType, int> count;
  for (const obs::TraceEvent& event : db.trace()->Snapshot()) {
    ++count[event.type];
  }
  EXPECT_GT(count[obs::TraceEventType::kDelegate], 0);
  EXPECT_GT(count[obs::TraceEventType::kUndoClusterSkip], 0);
  EXPECT_GT(db.metrics()->FindCounter("ariesrh_delegations")->Value(), 0u);
  EXPECT_GT(
      db.stats().recovery_backward_skipped.value(), 0u);
}

TEST(ObsIntegrationTest, CheckpointEventCarriesTableSizes) {
  Database db;
  TxnId t1 = *db.Begin();
  ASSERT_TRUE(db.Set(t1, 1, 10).ok());
  ASSERT_TRUE(db.Checkpoint().ok());

  const obs::TraceEvent* ckpt = nullptr;
  std::vector<obs::TraceEvent> events = db.trace()->Snapshot();
  for (const obs::TraceEvent& event : events) {
    if (event.type == obs::TraceEventType::kCheckpoint) ckpt = &event;
  }
  ASSERT_NE(ckpt, nullptr);
  EXPECT_GT(ckpt->a, 0u);   // CKPT_END LSN
  EXPECT_EQ(ckpt->b, 1u);   // one active transaction
  EXPECT_EQ(ckpt->c, 1u);   // one dirty page
}

}  // namespace
}  // namespace ariesrh
