// Worker-pool scheduler tests: truly concurrent forward processing must
// produce exactly the states the deterministic serial interleaving does.
// The centerpiece is the serial/concurrent equivalence matrix — the same
// workload at 1 and 4 workers, crashed and recovered at injected fault
// points, must leave identical committed values.

#include "workload/scheduler.h"

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "restart_util.h"

namespace ariesrh::workload {
namespace {

ProgramStep AddStep(ObjectId ob, int64_t delta) {
  return [=](Database* db, TxnId txn) { return db->Add(txn, ob, delta); };
}
ProgramStep SetStep(ObjectId ob, int64_t value) {
  return [=](Database* db, TxnId txn) { return db->Set(txn, ob, value); };
}

TEST(ConcurrentSchedulerTest, DisjointProgramsAllCommitOnWorkerPool) {
  Options options;
  options.group_commit = true;
  Database db(options);
  StepScheduler::SchedulerOptions sched_options;
  sched_options.worker_threads = 4;
  StepScheduler scheduler(&db, sched_options);
  constexpr int kPrograms = 16;
  std::vector<size_t> indices;
  for (int p = 0; p < kPrograms; ++p) {
    TxnProgram program{"p" + std::to_string(p), {}};
    const ObjectId base = static_cast<ObjectId>(p) * 2;
    program.Then(SetStep(base, p)).Then(AddStep(base + 1, p + 100));
    indices.push_back(scheduler.AddProgram(std::move(program)));
  }
  ASSERT_TRUE(scheduler.Run().ok());
  for (size_t index : indices) {
    EXPECT_EQ(scheduler.outcome(index), ProgramOutcome::kCommitted);
  }
  for (int p = 0; p < kPrograms; ++p) {
    const ObjectId base = static_cast<ObjectId>(p) * 2;
    EXPECT_EQ(*db.ReadCommitted(base), p);
    EXPECT_EQ(*db.ReadCommitted(base + 1), p + 100);
  }
}

TEST(ConcurrentSchedulerTest, ContendedCommutingAddsSumExactly) {
  // Every program increments the same object: increment locks are
  // compatible, so workers proceed in parallel and the committed value is
  // the exact sum regardless of the interleaving.
  Database db;
  StepScheduler::SchedulerOptions sched_options;
  sched_options.worker_threads = 4;
  StepScheduler scheduler(&db, sched_options);
  constexpr int kPrograms = 16;
  constexpr int kAddsPerProgram = 4;
  for (int p = 0; p < kPrograms; ++p) {
    TxnProgram program{"inc" + std::to_string(p), {}};
    for (int u = 0; u < kAddsPerProgram; ++u) program.Then(AddStep(7, 1));
    scheduler.AddProgram(std::move(program));
  }
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(*db.ReadCommitted(7), kPrograms * kAddsPerProgram);
}

TEST(ConcurrentSchedulerTest, ConflictingSetsRetryAndSerialize) {
  // Sets on one object take exclusive locks: workers collide, the retry
  // loop kicks in, and the committed value must be exactly one program's
  // final write — never a blend of two.
  Database db;
  StepScheduler::SchedulerOptions sched_options;
  sched_options.worker_threads = 4;
  StepScheduler scheduler(&db, sched_options);
  constexpr int kPrograms = 8;
  std::vector<size_t> indices;
  for (int p = 0; p < kPrograms; ++p) {
    TxnProgram program{"set" + std::to_string(p), {}};
    program.Then(SetStep(1, (p + 1) * 10)).Then(AddStep(1, 5));
    indices.push_back(scheduler.AddProgram(std::move(program)));
  }
  ASSERT_TRUE(scheduler.Run().ok());
  for (size_t index : indices) {
    EXPECT_EQ(scheduler.outcome(index), ProgramOutcome::kCommitted);
  }
  const int64_t value = *db.ReadCommitted(1);
  EXPECT_EQ(value % 10, 5);  // some program's Set(p*10) + its Add(5)
  EXPECT_GE(value, 15);
  EXPECT_LE(value, kPrograms * 10 + 5);
}

// --- Serial/concurrent equivalence across crash points ------------------

// The shared workload: commuting adds over a small contended set plus a
// disjoint per-program object, so the committed end state is independent of
// both the interleaving and the worker count.
void BuildEquivalenceWorkload(StepScheduler* scheduler) {
  constexpr int kPrograms = 12;
  for (int p = 0; p < kPrograms; ++p) {
    TxnProgram program{"p" + std::to_string(p), {}};
    program.Then(AddStep(static_cast<ObjectId>(p % 4), 1))
        .Then(AddStep(static_cast<ObjectId>(16 + p), p + 1))
        .Then(AddStep(static_cast<ObjectId>(p % 4), 3));
    scheduler->AddProgram(std::move(program));
  }
}

// Runs the workload at `workers`, then crashes and recovers with the given
// fault injected into the first recovery attempt, and returns the committed
// values. Group commit means every scheduler commit is durable at return,
// so the crash (no Sync) must lose nothing committed.
std::map<ObjectId, int64_t> RunAndRecover(size_t workers,
                                          uint64_t crash_after_redo,
                                          uint64_t crash_after_undo) {
  Options options;
  options.group_commit = true;
  Database db(options);
  StepScheduler::SchedulerOptions sched_options;
  sched_options.worker_threads = workers;
  StepScheduler scheduler(&db, sched_options);
  BuildEquivalenceWorkload(&scheduler);
  EXPECT_TRUE(scheduler.Run().ok());

  // Two losers with durable updates give the undo pass real work — more
  // steps than the largest injected undo budget, so the fault always fires.
  for (int l = 0; l < 2; ++l) {
    TxnId loser = *db.Begin();
    EXPECT_TRUE(db.Add(loser, static_cast<ObjectId>(40 + l), 99).ok());
    EXPECT_TRUE(db.Add(loser, static_cast<ObjectId>(40 + l), 1).ok());
  }
  EXPECT_TRUE(db.Sync().ok());

  db.SimulateCrash();
  if (crash_after_redo > 0 || crash_after_undo > 0) {
    db.mutable_options()->faults.crash_after_redo_records = crash_after_redo;
    db.mutable_options()->faults.crash_after_undo_steps = crash_after_undo;
    Result<RecoveryManager::Outcome> first = RestartAndAwait(db);
    EXPECT_FALSE(first.ok());
    EXPECT_TRUE(first.status().IsIOError()) << first.status().ToString();
    db.mutable_options()->faults.crash_after_redo_records = 0;
    db.mutable_options()->faults.crash_after_undo_steps = 0;
  }
  EXPECT_TRUE(RestartAndAwait(db).ok());

  std::map<ObjectId, int64_t> values;
  for (ObjectId ob = 0; ob < 48; ++ob) {
    values[ob] = *db.ReadCommitted(ob);
  }
  return values;
}

class SerialConcurrentEquivalenceTest
    : public ::testing::TestWithParam<std::pair<uint64_t, uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    CrashPoints, SerialConcurrentEquivalenceTest,
    ::testing::Values(std::pair<uint64_t, uint64_t>{0, 0},   // clean recovery
                      std::pair<uint64_t, uint64_t>{2, 0},   // die mid-redo
                      std::pair<uint64_t, uint64_t>{7, 0},   // die late redo
                      std::pair<uint64_t, uint64_t>{0, 1},   // die mid-undo
                      std::pair<uint64_t, uint64_t>{0, 2}),
    [](const auto& info) {
      return "redo" + std::to_string(info.param.first) + "_undo" +
             std::to_string(info.param.second);
    });

TEST_P(SerialConcurrentEquivalenceTest, SameCommittedStateAtOneAndFour) {
  const auto [crash_redo, crash_undo] = GetParam();
  const auto serial = RunAndRecover(1, crash_redo, crash_undo);
  const auto concurrent = RunAndRecover(4, crash_redo, crash_undo);
  ASSERT_EQ(serial.size(), concurrent.size());
  for (const auto& [ob, expected] : serial) {
    EXPECT_EQ(concurrent.at(ob), expected) << "object " << ob;
  }
  // And both match the workload's arithmetic: the contended objects carry
  // 3 adds of (1+3) each, the per-program objects p+1, the losers nothing.
  for (ObjectId ob = 0; ob < 4; ++ob) {
    EXPECT_EQ(serial.at(ob), 3 * 4) << "object " << ob;
  }
  for (int p = 0; p < 12; ++p) {
    EXPECT_EQ(serial.at(static_cast<ObjectId>(16 + p)), p + 1);
  }
  EXPECT_EQ(serial.at(40), 0);
  EXPECT_EQ(serial.at(41), 0);
}

}  // namespace
}  // namespace ariesrh::workload
