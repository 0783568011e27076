// Chaos suite: randomized workloads with *compound* failures — crashes in
// the middle of recovery's undo pass, torn log tails, media failures with
// backup restore — all verified against the oracle, across delegation
// modes. This is the closest the repository gets to hostile production.

#include <gtest/gtest.h>

#include "core/database.h"
#include "util/random.h"
#include "workload/workload.h"
#include "restart_util.h"

namespace ariesrh {
namespace {

using workload::WorkloadDriver;
using workload::WorkloadOptions;

// Recovers `db`, optionally interrupted several times by the injected
// crash-during-undo fault, always finishing successfully.
void RecoverThroughInterruptions(Database* db, Random* chaos,
                                 int max_interruptions) {
  for (int i = 0; i < max_interruptions; ++i) {
    db->mutable_options()->faults.crash_after_undo_steps =
        1 + chaos->Uniform(4);
    Result<RecoveryManager::Outcome> attempt = RestartAndAwait(*db);
    if (attempt.ok()) {
      db->mutable_options()->faults.crash_after_undo_steps = 0;
      return;  // recovery finished within the budget
    }
    ASSERT_TRUE(attempt.status().IsIOError()) << attempt.status().ToString();
  }
  db->mutable_options()->faults.crash_after_undo_steps = 0;
  ASSERT_TRUE(RestartAndAwait(*db).ok());
}

class ChaosTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest, ::testing::Range<uint64_t>(1, 9));

TEST_P(ChaosTest, CrashStormDuringRecovery) {
  Database db;
  WorkloadOptions options;
  options.seed = GetParam();
  options.savepoint_weight = 5;
  WorkloadDriver driver(&db, options);
  Random chaos(GetParam() * 7919);

  for (int cycle = 0; cycle < 4; ++cycle) {
    ASSERT_TRUE(driver.Run(250).ok()) << "cycle " << cycle;
    driver.CrashOnly();
    RecoverThroughInterruptions(&db, &chaos,
                                static_cast<int>(chaos.Uniform(5)));
    if (::testing::Test::HasFatalFailure()) return;
    Status verify = driver.Verify();
    ASSERT_TRUE(verify.ok()) << "cycle " << cycle << " seed " << GetParam()
                             << ": " << verify.ToString();
  }
}

TEST_P(ChaosTest, TornTailPlusInterruptedRecovery) {
  Database db;
  WorkloadOptions options;
  options.seed = GetParam() * 3 + 1;
  WorkloadDriver driver(&db, options);
  Random chaos(GetParam() * 131);

  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(driver.Run(200).ok());
    // Force the tail out, then tear the final stable record. Everything the
    // oracle believes durable was forced by its commit, so tearing the last
    // record only ever hits loser records (or is absorbed by recovery).
    ASSERT_TRUE(db.shard(0)->log_manager()->FlushAll().ok());
    driver.CrashOnly();
    ASSERT_TRUE(db.shard(0)->disk()->CorruptLogTail(1 + chaos.Uniform(4)).ok());
    RecoverThroughInterruptions(&db, &chaos, 2);
    if (::testing::Test::HasFatalFailure()) return;
    Status verify = driver.Verify();
    ASSERT_TRUE(verify.ok()) << "cycle " << cycle << ": " << verify.ToString();
  }
}

TEST_P(ChaosTest, MediaFailureMidWorkload) {
  Database db;
  WorkloadOptions options;
  options.seed = GetParam() * 101;
  options.checkpoint_every = 83;
  WorkloadDriver driver(&db, options);

  // Take periodic backups; on media failure, restore the latest and roll
  // forward; the oracle must still agree.
  ASSERT_TRUE(driver.Run(150).ok());
  Result<Database::BackupImage> backup = db.Backup();
  ASSERT_TRUE(backup.ok()) << backup.status().ToString();
  ASSERT_TRUE(driver.Run(150).ok());

  db.SimulateMediaFailure();
  driver.CrashOnly();  // already crashed; mirrors the oracle + active list
  ASSERT_TRUE(db.RestoreFromBackup(*backup).ok());
  ASSERT_TRUE(RestartAndAwait(db).ok());
  Status verify = driver.Verify();
  ASSERT_TRUE(verify.ok()) << verify.ToString();
}

TEST_P(ChaosTest, EverythingEverywhereAllAtOnce) {
  // Alternating hazards over many cycles, all modes of failure combined
  // with delegation-heavy load and skewed access.
  Database db;
  WorkloadOptions options;
  options.seed = GetParam() * 997;
  options.skewed_access = true;
  options.delegate_weight = 25;
  options.savepoint_weight = 8;
  options.checkpoint_every = 67;
  WorkloadDriver driver(&db, options);
  Random chaos(GetParam());

  Result<Database::BackupImage> backup = db.Backup();
  ASSERT_TRUE(backup.ok());

  for (int cycle = 0; cycle < 5; ++cycle) {
    ASSERT_TRUE(driver.Run(180).ok()) << "cycle " << cycle;
    switch (chaos.Uniform(3)) {
      case 0: {  // plain crash
        driver.CrashOnly();
        ASSERT_TRUE(RestartAndAwait(db).ok());
        break;
      }
      case 1: {  // interrupted recovery
        driver.CrashOnly();
        RecoverThroughInterruptions(&db, &chaos, 3);
        break;
      }
      case 2: {  // media failure + restore + roll forward
        db.SimulateMediaFailure();
        driver.CrashOnly();
        ASSERT_TRUE(db.RestoreFromBackup(*backup).ok());
        ASSERT_TRUE(RestartAndAwait(db).ok());
        break;
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
    Status verify = driver.Verify();
    ASSERT_TRUE(verify.ok()) << "cycle " << cycle << " seed " << GetParam()
                             << ": " << verify.ToString();
    // Refresh the backup so case 2 never needs archived history.
    backup = db.Backup();
    ASSERT_TRUE(backup.ok());
  }
}

}  // namespace
}  // namespace ariesrh
