// WorkloadDriver self-tests: the shared randomized driver must be a valid
// client of the engine and its oracle mirroring must hold across modes,
// crashes, checkpoints, savepoints, and baselines.

#include "workload/workload.h"

#include <gtest/gtest.h>

namespace ariesrh::workload {
namespace {

TEST(WorkloadDriverTest, RunsAndCounts) {
  Database db;
  WorkloadOptions options;
  options.seed = 1;
  WorkloadDriver driver(&db, options);
  ASSERT_TRUE(driver.Run(500).ok());
  EXPECT_GT(driver.updates(), 100u);
  EXPECT_GT(driver.commits(), 10u);
  EXPECT_GT(driver.delegations(), 5u);
}

TEST(WorkloadDriverTest, VerifyAfterQuiescing) {
  Database db;
  WorkloadOptions options;
  options.seed = 2;
  WorkloadDriver driver(&db, options);
  ASSERT_TRUE(driver.Run(300).ok());
  // Crash is the simplest quiesce: losers resolve, then the oracle check.
  ASSERT_TRUE(driver.CrashRecoverVerify().ok());
}

class WorkloadModeTest
    : public ::testing::TestWithParam<std::tuple<DelegationMode, uint64_t>> {
};

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, WorkloadModeTest,
    ::testing::Combine(::testing::Values(DelegationMode::kDisabled,
                                         DelegationMode::kRH,
                                         DelegationMode::kEager,
                                         DelegationMode::kLazyRewrite),
                       ::testing::Values(11u, 23u, 47u)),
    [](const auto& info) {
      std::string name = DelegationModeName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST_P(WorkloadModeTest, CrashRecoverVerifyAcrossModes) {
  const auto [mode, seed] = GetParam();
  Options db_options;
  db_options.delegation_mode = mode;
  Database db(db_options);
  WorkloadOptions options;
  options.seed = seed;
  WorkloadDriver driver(&db, options);
  ASSERT_TRUE(driver.Run(400).ok());
  Status verify = driver.CrashRecoverVerify();
  EXPECT_TRUE(verify.ok()) << verify.ToString();
}

TEST_P(WorkloadModeTest, WithSavepointsAndCheckpoints) {
  const auto [mode, seed] = GetParam();
  Options db_options;
  db_options.delegation_mode = mode;
  Database db(db_options);
  WorkloadOptions options;
  options.seed = seed * 131;
  options.savepoint_weight = 10;
  // The rewriting baselines cannot use checkpoints at recovery, but taking
  // them is still legal; only kRH/kDisabled benefit.
  options.checkpoint_every = 71;
  WorkloadDriver driver(&db, options);
  ASSERT_TRUE(driver.Run(400).ok());
  Status verify = driver.CrashRecoverVerify();
  EXPECT_TRUE(verify.ok()) << verify.ToString();
  EXPECT_GT(driver.rollbacks() + driver.delegations(), 0u);
}

TEST(WorkloadDriverTest, MultiCycleEndurance) {
  Database db;
  WorkloadOptions options;
  options.seed = 99;
  options.savepoint_weight = 8;
  options.skewed_access = true;
  WorkloadDriver driver(&db, options);
  for (int cycle = 0; cycle < 5; ++cycle) {
    ASSERT_TRUE(driver.Run(200).ok()) << "cycle " << cycle;
    Status verify = driver.CrashRecoverVerify();
    ASSERT_TRUE(verify.ok()) << "cycle " << cycle << ": " << verify.ToString();
  }
}

TEST(WorkloadDriverTest, ZeroWeightsRejected) {
  Database db;
  WorkloadOptions options;
  options.begin_weight = options.update_weight = options.delegate_weight =
      options.commit_weight = options.abort_weight =
          options.savepoint_weight = 0;
  WorkloadDriver driver(&db, options);
  EXPECT_TRUE(driver.Step().IsInvalidArgument());
}

TEST(WorkloadDriverTest, DeterministicForSameSeed) {
  auto run = [] {
    Database db;
    WorkloadOptions options;
    options.seed = 777;
    WorkloadDriver driver(&db, options);
    EXPECT_TRUE(driver.Run(300).ok());
    return std::tuple(driver.updates(), driver.delegations(),
                      driver.commits(), driver.aborts());
  };
  EXPECT_EQ(run(), run());
}

// WorkloadDriver at two shards: each update's LSN is read on the shard its
// object lives on, and the oracle holds through a crash for every seed.
TEST(WorkloadDriverTest, TwoShardsCrashRecoverVerify) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Options db_options;
    db_options.num_shards = 2;
    Database db(db_options);
    WorkloadOptions options;
    options.seed = seed;
    WorkloadDriver driver(&db, options);
    Status run = driver.Run(300);
    ASSERT_TRUE(run.ok()) << "seed " << seed << ": " << run.ToString();
    Status verify = driver.CrashRecoverVerify();
    EXPECT_TRUE(verify.ok()) << "seed " << seed << ": " << verify.ToString();
  }
}

}  // namespace
}  // namespace ariesrh::workload
