// StepScheduler tests: deterministic interleavings, conflict retry loops,
// serializability of the committed outcome.

#include "workload/scheduler.h"

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

TEST(StepSchedulerTest, SingleProgramCommits) {
  Database db;
  StepScheduler scheduler(&db);
  TxnProgram p{"solo", {}};
  p.Then(SetStep(1, 10)).Then(AddStep(1, 5));
  size_t index = scheduler.AddProgram(std::move(p));
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.outcome(index), ProgramOutcome::kCommitted);
  EXPECT_EQ(*db.ReadCommitted(1), 15);
}

TEST(StepSchedulerTest, NonConflictingProgramsAllCommit) {
  Database db;
  StepScheduler scheduler(&db);
  std::vector<size_t> indices;
  for (ObjectId ob = 0; ob < 8; ++ob) {
    TxnProgram p{"p" + std::to_string(ob), {}};
    p.Then(SetStep(ob, static_cast<int64_t>(ob) * 10))
        .Then(AddStep(ob, 1));
    indices.push_back(scheduler.AddProgram(std::move(p)));
  }
  ASSERT_TRUE(scheduler.Run().ok());
  for (size_t index : indices) {
    EXPECT_EQ(scheduler.outcome(index), ProgramOutcome::kCommitted);
  }
  for (ObjectId ob = 0; ob < 8; ++ob) {
    EXPECT_EQ(*db.ReadCommitted(ob), static_cast<int64_t>(ob) * 10 + 1);
  }
}

TEST(StepSchedulerTest, IncrementersCommuteWithoutRestarts) {
  Database db;
  StepScheduler scheduler(&db);
  for (int i = 0; i < 10; ++i) {
    TxnProgram p{"inc" + std::to_string(i), {}};
    p.Then(AddStep(1, 1)).Then(AddStep(1, 1));
    scheduler.AddProgram(std::move(p));
  }
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(*db.ReadCommitted(1), 20);
  EXPECT_EQ(scheduler.restarts(), 0u);  // increment locks are compatible
}

TEST(StepSchedulerTest, ConflictingWritersSerializeViaRetry) {
  Database db;
  StepScheduler scheduler(&db);
  // Ten programs all read-modify-write the same cell with exclusive sets;
  // no-wait locking forces Busy retries and restarts, but every program
  // must eventually commit and the total must reflect all of them.
  for (int i = 0; i < 10; ++i) {
    TxnProgram p{"rmw" + std::to_string(i), {}};
    p.Then([](Database* db, TxnId txn) -> Status {
      Result<int64_t> value = db->Read(txn, 1);
      ARIESRH_RETURN_IF_ERROR(value.status());
      return db->Set(txn, 1, *value + 1);
    });
    scheduler.AddProgram(std::move(p));
  }
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(*db.ReadCommitted(1), 10);
  EXPECT_GT(scheduler.busy_events(), 0u);  // conflicts really happened
}

TEST(StepSchedulerTest, OppositeLockOrdersResolveViaRestart) {
  // The classic deadlock shape (A then B vs. B then A) cannot deadlock
  // under no-wait locking: one side goes Busy, eventually restarts
  // (releasing its locks), and both commit.
  Database db;
  StepScheduler::SchedulerOptions options;
  options.seed = 3;
  options.busy_retries_before_restart = 2;
  StepScheduler scheduler(&db, options);
  TxnProgram ab{"ab", {}};
  ab.Then(SetStep(1, 100)).Then(SetStep(2, 100));
  TxnProgram ba{"ba", {}};
  ba.Then(SetStep(2, 200)).Then(SetStep(1, 200));
  size_t i1 = scheduler.AddProgram(std::move(ab));
  size_t i2 = scheduler.AddProgram(std::move(ba));
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.outcome(i1), ProgramOutcome::kCommitted);
  EXPECT_EQ(scheduler.outcome(i2), ProgramOutcome::kCommitted);
  // Whoever committed last wrote both cells with its value.
  const int64_t v1 = *db.ReadCommitted(1);
  const int64_t v2 = *db.ReadCommitted(2);
  EXPECT_TRUE((v1 == 100 && v2 == 100) || (v1 == 200 && v2 == 200) ||
              (v1 == 200 && v2 == 100) || (v1 == 100 && v2 == 200));
}

TEST(StepSchedulerTest, FailedStepAbortsProgram) {
  Database db;
  StepScheduler scheduler(&db);
  TxnProgram bad{"bad", {}};
  bad.Then(SetStep(1, 5)).Then([](Database*, TxnId) {
    return Status::InvalidArgument("business rule violated");
  });
  size_t index = scheduler.AddProgram(std::move(bad));
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.outcome(index), ProgramOutcome::kFailed);
  EXPECT_EQ(*db.ReadCommitted(1), 0);  // aborted, not committed
}

TEST(StepSchedulerTest, ProgramMayResolveItself) {
  Database db;
  StepScheduler scheduler(&db);
  TxnProgram aborter{"self-abort", {}};
  aborter.Then(SetStep(1, 5)).Then([](Database* db, TxnId txn) {
    return db->Abort(txn);  // program decides to abort; still "committed"
  });
  size_t index = scheduler.AddProgram(std::move(aborter));
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.outcome(index), ProgramOutcome::kCommitted);
  EXPECT_EQ(*db.ReadCommitted(1), 0);
}

TEST(StepSchedulerTest, DelegationBetweenPrograms) {
  // A producer sets up state and delegates it to a consumer transaction id
  // exchanged through a shared slot; the consumer commits it.
  Database db;
  StepScheduler scheduler(&db);
  TxnId consumer_txn = kInvalidTxn;

  TxnProgram consumer{"consumer", {}};
  consumer.Then([&consumer_txn](Database*, TxnId txn) {
    consumer_txn = txn;  // advertise
    return Status::OK();
  });
  consumer.Then([&consumer_txn](Database* db, TxnId txn) -> Status {
    // Wait until the delegation arrived.
    const Transaction* tx = db->shard(0)->txn_manager()->Find(txn);
    if (!tx->IsResponsibleFor(7)) return Status::Busy("nothing yet");
    (void)consumer_txn;
    return Status::OK();
  });

  TxnProgram producer{"producer", {}};
  producer.Then(SetStep(7, 77));
  producer.Then([&consumer_txn](Database* db, TxnId txn) -> Status {
    if (consumer_txn == kInvalidTxn) return Status::Busy("no consumer yet");
    return db->Delegate(txn, consumer_txn, DelegationSpec::Objects({7}));
  });

  size_t ci = scheduler.AddProgram(std::move(consumer));
  size_t pi = scheduler.AddProgram(std::move(producer));
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.outcome(ci), ProgramOutcome::kCommitted);
  EXPECT_EQ(scheduler.outcome(pi), ProgramOutcome::kCommitted);
  EXPECT_EQ(*db.ReadCommitted(7), 77);
}

class SchedulerSeedTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerSeedTest,
                         ::testing::Range<uint64_t>(1, 11));

TEST_P(SchedulerSeedTest, MoneyTransferInvariantUnderAnyInterleaving) {
  // Bank accounts 0..5 start at 100 (committed). Transfer programs move
  // money with read-modify-write pairs; total money is conserved no matter
  // the interleaving, and a final crash+recovery preserves it.
  Database db;
  TxnId init = *db.Begin();
  for (ObjectId account = 0; account < 6; ++account) {
    ASSERT_TRUE(db.Set(init, account, 100).ok());
  }
  ASSERT_TRUE(db.Commit(init).ok());

  StepScheduler::SchedulerOptions options;
  options.seed = GetParam();
  StepScheduler scheduler(&db, options);
  Random rng(GetParam() * 17);
  for (int i = 0; i < 12; ++i) {
    ObjectId from = rng.Uniform(6);
    ObjectId to = rng.Uniform(6);
    if (from == to) to = (to + 1) % 6;
    int64_t amount = rng.UniformRange(1, 30);
    TxnProgram p{"xfer" + std::to_string(i), {}};
    p.Then([=](Database* db, TxnId txn) -> Status {
      Result<int64_t> balance = db->Read(txn, from);
      ARIESRH_RETURN_IF_ERROR(balance.status());
      return db->Set(txn, from, *balance - amount);
    });
    p.Then([=](Database* db, TxnId txn) -> Status {
      Result<int64_t> balance = db->Read(txn, to);
      ARIESRH_RETURN_IF_ERROR(balance.status());
      return db->Set(txn, to, *balance + amount);
    });
    scheduler.AddProgram(std::move(p));
  }
  ASSERT_TRUE(scheduler.Run().ok());

  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(db).ok());
  int64_t total = 0;
  for (ObjectId account = 0; account < 6; ++account) {
    total += *db.ReadCommitted(account);
  }
  EXPECT_EQ(total, 600) << "money not conserved (seed " << GetParam() << ")";
}

}  // namespace
}  // namespace ariesrh::workload
