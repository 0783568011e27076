// The logical-recovery crash matrix for the table layer. Logical redo is
// state-based replay and logical undo is keyed by record identity, so the
// invariant under test is blunt: whatever combination of shard count,
// recovery thread count, crash position inside a transaction's run, and
// crash *during recovery itself*, the surviving table state is exactly the
// committed ground truth — every committed write present, every loser write
// absent, per key.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/database.h"
#include "table/table_heap.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

Options MatrixOptions(size_t shards, size_t threads, RecoveryMode mode) {
  Options options;
  options.num_shards = shards;
  options.recovery_threads = threads;
  options.recovery_mode = mode;
  return options;
}

/// One logical mutation of the workload, with the model bookkeeping to
/// derive keyed ground truth.
struct Op {
  enum Kind { kPut, kDelete } kind;
  std::string key;
  std::string value;
};

/// The loser's script: every protocol shape a table transaction can take —
/// insert of a fresh key, update of an existing key, delete of an existing
/// key, re-insert of a key it deleted itself, and an overwrite of its own
/// insert — so a crash after each prefix exercises undo of every record
/// type from every intermediate state.
std::vector<Op> LoserScript() {
  return {
      {Op::kPut, "fresh", "loser-1"},      // TBL_INSERT of a new key
      {Op::kPut, "base:1", "loser-2"},     // TBL_UPDATE of a committed key
      {Op::kDelete, "base:2", ""},         // TBL_DELETE of a committed key
      {Op::kPut, "base:2", "loser-3"},     // re-insert after own delete
      {Op::kPut, "fresh", "loser-4"},      // overwrite of own insert
      {Op::kDelete, "base:3", ""},         // second delete, other key
  };
}

std::map<std::string, std::string> BaseState() {
  return {{"base:0", "v0"}, {"base:1", "v1"}, {"base:2", "v2"},
          {"base:3", "v3"}, {"base:4", "v4"}};
}

void InstallBase(Database* db) {
  TxnId t = *db->Begin();
  for (const auto& [key, value] : BaseState()) {
    ASSERT_TRUE(db->TablePut(t, key, value).ok());
  }
  ASSERT_TRUE(db->Commit(t).ok());
}

Status ApplyOp(Database* db, TxnId t, const Op& op) {
  return op.kind == Op::kPut ? db->TablePut(t, op.key, op.value)
                             : db->TableDelete(t, op.key);
}

/// Asserts the recovered table matches `expected` exactly, key by key, and
/// that keys outside the model are absent.
void VerifyState(Database* db, const std::map<std::string, std::string>& expected,
                 const std::string& label) {
  for (const auto& [key, value] : expected) {
    Result<std::optional<std::string>> got = db->TableGetCommitted(key);
    ASSERT_TRUE(got.ok()) << label;
    ASSERT_TRUE(got->has_value()) << label << " lost key " << key;
    EXPECT_EQ(**got, value) << label << " key " << key;
  }
  for (const std::string& key : {std::string("fresh"), std::string("ghost")}) {
    if (expected.count(key)) continue;
    Result<std::optional<std::string>> got = db->TableGetCommitted(key);
    ASSERT_TRUE(got.ok()) << label;
    EXPECT_FALSE(got->has_value()) << label << " resurrected key " << key;
  }
}

// The matrix runs under both recovery modes: kFull (the classic blocking
// restart) and kInstant (analysis-only open, on-demand redo at fetch,
// background cluster undo). RestartAndAwait Await()s the instant
// restart's handle, so every assertion below doubles as an observational
// equivalence check — the post-Await state must match what kFull produces.
class TableCrashMatrixTest
    : public ::testing::TestWithParam<
          std::tuple<size_t, size_t, RecoveryMode>> {
 protected:
  size_t shards() const { return std::get<0>(GetParam()); }
  size_t threads() const { return std::get<1>(GetParam()); }
  RecoveryMode mode() const { return std::get<2>(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(
    ShardsAndThreads, TableCrashMatrixTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(RecoveryMode::kFull,
                                         RecoveryMode::kInstant)),
    [](const auto& info) {
      return "shards" + std::to_string(std::get<0>(info.param)) + "_threads" +
             std::to_string(std::get<1>(info.param)) + "_" +
             RecoveryModeName(std::get<2>(info.param));
    });

// A loser crashed after every possible prefix of its script must vanish
// without trace: the base state survives bit-for-bit.
TEST_P(TableCrashMatrixTest, LoserUndoneAtEveryCrashPoint) {
  const std::vector<Op> script = LoserScript();
  for (size_t prefix = 0; prefix <= script.size(); ++prefix) {
    Database db(MatrixOptions(shards(), threads(), mode()));
    InstallBase(&db);
    if (::testing::Test::HasFatalFailure()) return;
    TxnId loser = *db.Begin();
    for (size_t i = 0; i < prefix; ++i) {
      ASSERT_TRUE(ApplyOp(&db, loser, script[i]).ok())
          << "prefix " << prefix << " op " << i;
    }
    db.SimulateCrash();
    ASSERT_TRUE(RestartAndAwait(db).ok());
    VerifyState(&db, BaseState(),
                "prefix=" + std::to_string(prefix) + " shards=" +
                    std::to_string(shards()) + " threads=" +
                    std::to_string(threads()));
  }
}

// The same script committed must survive in full — including when the crash
// lands between the commit and any page flush (pure logical redo).
TEST_P(TableCrashMatrixTest, CommittedScriptSurvivesIntact) {
  Database db(MatrixOptions(shards(), threads(), mode()));
  InstallBase(&db);
  if (::testing::Test::HasFatalFailure()) return;
  std::map<std::string, std::string> model = BaseState();
  TxnId t = *db.Begin();
  for (const Op& op : LoserScript()) {
    ASSERT_TRUE(ApplyOp(&db, t, op).ok());
    if (op.kind == Op::kPut) {
      model[op.key] = op.value;
    } else {
      model.erase(op.key);
    }
  }
  ASSERT_TRUE(db.Commit(t).ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  VerifyState(&db, model, "committed script");
}

// Mixed fates with interleaved writers: committed and loser transactions
// alternate over overlapping key ranges; only the committed writes live.
TEST_P(TableCrashMatrixTest, MixedFatesResolvePerKey) {
  Database db(MatrixOptions(shards(), threads(), mode()));
  InstallBase(&db);
  if (::testing::Test::HasFatalFailure()) return;
  std::map<std::string, std::string> model = BaseState();

  TxnId winner = *db.Begin();
  TxnId loser = *db.Begin();
  ASSERT_TRUE(db.TablePut(winner, "base:0", "won").ok());
  model["base:0"] = "won";
  ASSERT_TRUE(db.TablePut(loser, "base:1", "lost").ok());
  ASSERT_TRUE(db.TableDelete(winner, "base:4").ok());
  model.erase("base:4");
  ASSERT_TRUE(db.TablePut(loser, "ghost", "lost").ok());
  ASSERT_TRUE(db.TablePut(winner, "kept", "won").ok());
  model["kept"] = "won";
  ASSERT_TRUE(db.Commit(winner).ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  VerifyState(&db, model, "mixed fates");
}

// Crash *during recovery*, in both passes: one interrupted attempt at a
// given budget, then a clean run. Logical redo is idempotent state-based
// replay, so a half-applied redo pass leaves nothing the rerun cannot fix;
// TBL_CLRs persist the undo pass's progress.
TEST_P(TableCrashMatrixTest, InterruptedRecoveryConverges) {
  struct FaultShape {
    uint64_t redo_after;
    uint64_t undo_after;
  };
  for (const FaultShape& shape :
       {FaultShape{1, 0}, FaultShape{3, 0}, FaultShape{0, 1},
        FaultShape{0, 2}, FaultShape{2, 2}}) {
    const std::string label =
        "redo_after=" + std::to_string(shape.redo_after) +
        " undo_after=" + std::to_string(shape.undo_after);
    Database db(MatrixOptions(shards(), threads(), mode()));
    InstallBase(&db);
    if (::testing::Test::HasFatalFailure()) return;
    TxnId loser = *db.Begin();
    for (const Op& op : LoserScript()) {
      ASSERT_TRUE(ApplyOp(&db, loser, op).ok());
    }
    db.SimulateCrash();

    TestHook crash;
    if (shape.undo_after > 0) {
      crash = CrashAt("recovery:undo", shape.undo_after);
    }
    if (shape.redo_after > 0) {
      crash = CrashAt("recovery:redo", shape.redo_after, std::move(crash));
    }
    db.set_test_hook(std::move(crash));
    Result<RecoveryManager::Outcome> first = RestartAndAwait(db);
    if (!first.ok()) {
      // The injected mid-recovery crash fired (with several shards a small
      // budget may not be reached on every shard, so a clean first pass is
      // also legal). Re-crash the whole engine, like a real second failure.
      EXPECT_TRUE(first.status().IsIOError()) << label;
      db.SimulateCrash();
    }
    db.set_test_hook(nullptr);
    if (db.NeedsRecovery()) {
      ASSERT_TRUE(RestartAndAwait(db).ok()) << label;
    }
    VerifyState(&db, BaseState(), label);
  }
}

// Repeated interruption of the undo pass specifically: the TBL_CLRs written
// before each injected crash persist, so every attempt starts further along
// and the loop converges.
TEST_P(TableCrashMatrixTest, RepeatedUndoInterruptionConverges) {
  Database db(MatrixOptions(shards(), threads(), mode()));
  InstallBase(&db);
  if (::testing::Test::HasFatalFailure()) return;
  TxnId loser = *db.Begin();
  for (const Op& op : LoserScript()) {
    ASSERT_TRUE(ApplyOp(&db, loser, op).ok());
  }
  db.SimulateCrash();

  int attempts = 0;
  while (true) {
    ASSERT_LT(attempts, 100) << "undo is not making progress";
    db.set_test_hook(CrashAt("recovery:undo", 1));
    Result<RecoveryManager::Outcome> outcome = RestartAndAwait(db);
    ++attempts;
    if (outcome.ok()) break;
    ASSERT_TRUE(outcome.status().IsIOError()) << outcome.status().ToString();
    db.SimulateCrash();
  }
  db.set_test_hook(nullptr);
  VerifyState(&db, BaseState(), "repeated undo interruption");
}

// A checkpoint mid-transaction folds the heap's dirty pages into the DPT;
// recovery from that checkpoint must still see and undo the loser, and must
// redo committed writes that only exist past the checkpoint.
TEST_P(TableCrashMatrixTest, CheckpointCoversTheHeap) {
  Database db(MatrixOptions(shards(), threads(), mode()));
  InstallBase(&db);
  if (::testing::Test::HasFatalFailure()) return;
  std::map<std::string, std::string> model = BaseState();

  TxnId loser = *db.Begin();
  ASSERT_TRUE(db.TablePut(loser, "base:0", "lost").ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  TxnId winner = *db.Begin();
  ASSERT_TRUE(db.TablePut(winner, "post-ckpt", "won").ok());
  model["post-ckpt"] = "won";
  ASSERT_TRUE(db.TableDelete(loser, "base:1").ok());
  ASSERT_TRUE(db.Commit(winner).ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  VerifyState(&db, model, "checkpointed");
}

// Two crash/recover cycles back to back: recovery's own output (CLRs, the
// restart checkpoint) must itself recover cleanly.
TEST_P(TableCrashMatrixTest, DoubleCrashIsStable) {
  Database db(MatrixOptions(shards(), threads(), mode()));
  InstallBase(&db);
  if (::testing::Test::HasFatalFailure()) return;
  TxnId loser = *db.Begin();
  for (const Op& op : LoserScript()) {
    ASSERT_TRUE(ApplyOp(&db, loser, op).ok());
  }
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  TxnId loser2 = *db.Begin();
  ASSERT_TRUE(db.TablePut(loser2, "base:0", "lost-again").ok());
  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  VerifyState(&db, BaseState(), "double crash");
}

}  // namespace
}  // namespace ariesrh
